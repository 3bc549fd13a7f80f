(* perfbench: the client-side benchmark of cschedd.

     main.exe --bin DIR --workload NAME --seed N --seconds S --trace 0|1

   One run spawns the built daemon (DIR/cschedd.exe --socket) several
   times — one trial per daemon — and drives each from this one
   single-threaded process until the timed windows add up to S seconds
   (at least three trials).  Every trial does the same work: the
   untimed warm-up, then the workload's fixed timed window.  Every
   reply is compared byte for byte with an in-process reference.  The
   last line of stdout is the result: the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1 (which adds the
   traced in-process replay, see Layers).  Run it through run.sh,
   which builds everything first. *)

open Service

let work_dir = ".perfbench"

(* --- arguments ---------------------------------------------------------- *)

type args = {
  bin : string;
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
}

let parse_args () =
  let bin = ref "" and workload = ref "" and seed = ref (-1)
  and seconds = ref 0. and trace = ref (-1) in
  Arg.parse
    [
      ("--bin", Arg.Set_string bin, "DIR  directory holding cschedd.exe and csched.exe");
      ("--workload", Arg.Set_string workload, "NAME  hot_mix, dp_cold or bank_warm");
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_float seconds, "S  timed seconds per run");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --bin DIR --workload NAME --seed N --seconds S --trace 0|1";
  if !bin = "" || !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1)
  then failwith "--bin, --workload, --seed >= 0, --seconds > 0 and --trace 0|1 are required";
  { bin = !bin; workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1 }

(* --- small helpers ------------------------------------------------------ *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.(n / 2 - 1) +. a.(n / 2)) /. 2.

let run_process exe args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) devnull devnull Unix.stderr
  in
  Unix.close devnull;
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith (exe ^ " " ^ String.concat " " args ^ " failed")

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* --- reference replies --------------------------------------------------- *)

(* What cschedd must answer: parse_line, then Protocol.handle on one
   fresh cache, then response_to_string.  A generated line whose
   reference is not ok is a workload bug. *)
let reference lines =
  let cache = Cache.create ~capacity:256 () in
  Array.map
    (fun line ->
       let env = Protocol.parse_line line in
       let result =
         match env.Protocol.request with
         | Ok r -> Protocol.handle ~cache r
         | Error e -> Error e
       in
       (match result with
        | Ok _ -> ()
        | Error e ->
          failwith ("workload line fails: " ^ line ^ ": " ^ Cyclesteal.Error.to_string e));
       Protocol.response_to_string ~id:env.Protocol.id result)
    lines

(* --- stats counters ------------------------------------------------------ *)

let stats_line = "{\"id\":0,\"op\":\"stats\"}"

(* The counter families the determinism guard compares, flattened to
   "family.counter" integers. *)
let families = [ "cache"; "kernel"; "solver_cache"; "game"; "bank" ]

type counters = { guarded : (string * int) list; requests : int; batches : int }

let counters_of reply =
  let result =
    match Result.map (Json.member "result") (Json.of_string reply) with
    | Ok (Some r) -> r
    | _ -> failwith ("unexpected stats reply: " ^ reply)
  in
  let int k = Option.value ~default:0 (Option.bind (Json.member k result) Json.to_int) in
  let guarded =
    List.concat_map
      (fun fam ->
         match Json.member fam result with
         | Some (Json.Obj kvs) ->
           List.filter_map
             (fun (k, v) -> Option.map (fun i -> (fam ^ "." ^ k, i)) (Json.to_int v))
             kvs
         | _ -> [])
      families
  in
  { guarded; requests = int "requests"; batches = int "batches" }

let get c k = Option.value ~default:0 (List.assoc_opt k c.guarded)

let delta a b k = get b k - get a k

(* --- one trial ------------------------------------------------------------ *)

type trial = {
  setup_ns : int;
  warm : Loadgen.result;
  window : Loadgen.result;
  cpu_ns : int;
  hwm_kb : int;
  steal_ticks : int;
  start : counters;  (** at readiness *)
  pre : counters;  (** before the timed window *)
  post : counters;  (** after it *)
}

let with_newline = Array.map (fun l -> l ^ "\n")

let trial ~args ~(w : Workloads.t) ~bank_dir ~warm_lines ~window_lines ~warm_ref
    ~window_ref =
  let socket = Printf.sprintf "%s/cschedd-%d.sock" work_dir (Unix.getpid ()) in
  let log = Printf.sprintf "%s/cschedd-%d.log" work_dir (Unix.getpid ()) in
  let exe = Filename.concat args.bin "cschedd.exe" in
  let flags =
    Workloads.daemon_flags w
    @ (match bank_dir with Some d -> [ "--bank"; d ] | None -> [])
    @ [ "--socket"; socket ]
  in
  let d, c0, ready, setup_ns =
    Daemon.start ~exe ~args:flags ~socket ~log ~first:stats_line
  in
  let t =
    Fun.protect
      ~finally:(fun () -> Daemon.stop d)
      (fun () ->
         let start = counters_of ready in
         let conns =
           Array.init w.Workloads.conns (fun i -> if i = 0 then c0 else Daemon.open_conn d)
         in
         let warm = Loadgen.drive [| c0 |] warm_lines warm_ref in
         let pre = counters_of (Daemon.call c0 stats_line) in
         let cpu0 = Daemon.cpu_ns d.Daemon.pid and steal0 = Daemon.steal_ticks () in
         let window = Loadgen.drive conns window_lines window_ref in
         let cpu1 = Daemon.cpu_ns d.Daemon.pid and steal1 = Daemon.steal_ticks () in
         let post = counters_of (Daemon.call c0 stats_line) in
         {
           setup_ns;
           warm;
           window;
           cpu_ns = cpu1 - cpu0;
           hwm_kb = Daemon.vm_hwm_kb d.Daemon.pid;
           steal_ticks = steal1 - steal0;
           start;
           pre;
           post;
         })
  in
  (* Kept only when the trial fails: its tail is in the error then. *)
  Sys.remove log;
  t

(* --- determinism guard ------------------------------------------------------ *)

let counters_text t =
  String.concat ""
    (List.map
       (fun (k, v) ->
          Printf.sprintf "%s %d %d %d\n" k (get t.start k) v (get t.post k))
       t.pre.guarded)

(* Every trial of a run, and every run of a seed, must move the guarded
   counters identically; returns the failures found. *)
let determinism ~(w : Workloads.t) ~seed ~digest trials =
  let first = List.hd trials in
  let text = counters_text first in
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  List.iteri
    (fun i t ->
       if counters_text t <> text then fail "trial %d moved the counters differently from trial 0" i)
    trials;
  let record =
    Printf.sprintf "%s/counters-%s-seed%d-%s.txt" work_dir w.Workloads.name seed digest
  in
  (match In_channel.with_open_bin record In_channel.input_all with
   | previous ->
     if previous <> text then fail "counters differ from an earlier run of seed %d (%s)" seed record
   | exception Sys_error _ ->
     Out_channel.with_open_bin record (fun oc -> output_string oc text));
  if w.Workloads.name = "hot_mix" then begin
    let d = delta first.pre first.post in
    if d "kernel.cells_filled" <> 0 then fail "hot_mix filled %d cells" (d "kernel.cells_filled");
    if d "cache.misses" <> 0 || d "solver_cache.misses" <> 0 || d "cache.hits" = 0 then
      fail "hot_mix cache hit ratio is not 1"
  end;
  List.rev !errors

(* --- host fingerprint ---------------------------------------------------------- *)

let commit () =
  let read f = String.trim (In_channel.with_open_bin f In_channel.input_all) in
  match read ".git/HEAD" with
  | head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
    let r = String.sub head 5 (String.length head - 5) in
    try read (".git/" ^ r) with Sys_error _ -> r)
  | head -> head
  | exception Sys_error _ -> "unknown (not a git checkout)"

(* Digest of the daemon's and the benchmark's sources: it stands in for
   the commit where the checkout carries no git metadata, and keys the
   counter records so a changed program starts a fresh record. *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then files p else [ p ])
  in
  files "lib" @ files "bin" @ files "perfbench"
  |> List.map (fun p -> p ^ Digest.to_hex (Digest.file p))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let metric name value unit =
  (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit) ])

(* Nearest-rank percentile of sorted [a], and how many samples lie
   strictly beyond its rank. *)
let percentile a q =
  let n = Array.length a in
  let rank = max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)) in
  (float_of_int a.(rank), n - rank - 1)

(* One trial's end-to-end readings: name, value, unit. *)
let readings t =
  let lat = Array.copy t.window.Loadgen.latency_ns in
  Array.sort compare lat;
  let n = float_of_int (Array.length lat) in
  [
    ("setup_s", Daemon.secs t.setup_ns, "s");
    ("throughput_rps", n /. Daemon.secs t.window.Loadgen.elapsed_ns, "1/s");
    ("latency_p50_ms", fst (percentile lat 0.50) /. 1e6, "ms");
    ("peak_rss_mb", float_of_int t.hwm_kb /. 1024., "MB");
    ("cpu_ms_per_req", float_of_int t.cpu_ns /. 1e6 /. n, "ms");
  ]

let reading name t =
  List.find_map (fun (k, v, _) -> if k = name then Some v else None) (readings t)
  |> Option.get

(* Each trial is the same fixed work on a fresh daemon, yet trials
   differ by more than sampling noise: a trial's whole latency
   distribution shifts from one daemon to the next.  So every metric is
   the median over the run's many short trials, except p99, which
   needs 100 samples beyond it and so pools the trials' samples. *)
let end_to_end trials ~success_rate =
  let lat = Array.concat (List.map (fun t -> t.window.Loadgen.latency_ns) trials) in
  Array.sort compare lat;
  let p99, beyond = percentile lat 0.99 in
  if beyond < 100 then
    failwith (Printf.sprintf "only %d samples beyond p99; a run needs 100" beyond);
  List.map
    (fun (name, _, unit) -> metric name (median (List.map (reading name) trials)) unit)
    (readings (List.hd trials))
  @ [ metric "latency_p99_ms" (p99 /. 1e6) "ms"; metric "success_rate" success_rate "ratio" ]

(* Client latency per op over the pooled windows: its share of the
   requests and its quantiles, recorded so the class shares can be
   checked to keep p50 and p99 inside one class. *)
let class_latency ~(w : Workloads.t) trials =
  let ops =
    Array.map
      (fun line ->
         match (Protocol.parse_line line).Protocol.request with
         | Ok r -> Protocol.op_name r
         | Error _ -> "invalid")
      w.Workloads.window
  in
  let names = List.sort_uniq compare (Array.to_list ops) in
  let total = float_of_int (Array.length ops) in
  List.map
    (fun op ->
       let lat =
         List.concat_map
           (fun t ->
              List.filteri (fun i _ -> ops.(i) = op)
                (Array.to_list t.window.Loadgen.latency_ns))
           trials
         |> Array.of_list
       in
       Array.sort compare lat;
       let share =
         float_of_int (Array.fold_left (fun n o -> if o = op then n + 1 else n) 0 ops)
         /. total
       in
       ( op,
         Json.Obj
           (("share", Json.Float share)
            :: List.map
                 (fun (label, q) -> (label, Json.Float (fst (percentile lat q) /. 1e6)))
                 [
                   ("p1", 0.01); ("p10", 0.10); ("p50", 0.50); ("p90", 0.90); ("p95", 0.95);
                   ("p98", 0.98); ("p99", 0.99);
                 ])
       ))
    names

let fingerprint ~args ~(w : Workloads.t) ~digest ~load0 ~trials =
  [
    ("workload", Json.String w.Workloads.name);
    ("seed", Json.Int args.seed);
    ("trace", Json.Bool args.trace);
    ("nproc", Json.Int (Csutil.Par.available_domains ()));
    ("ocaml", Json.String Sys.ocaml_version);
    ("commit", Json.String (commit ()));
    ("source_digest", Json.String digest);
    ( "daemon_flags",
      Json.String
        (String.concat " "
           (Workloads.daemon_flags w
            @ if w.Workloads.bank <> None then [ "--bank"; "DIR" ] else [])) );
    ("loadavg_1m", Json.Float load0);
    ("class_latency_ms", Json.Obj (class_latency ~w trials));
    ( "steal_ticks_in_windows",
      Json.Int (List.fold_left (fun a t -> a + t.steal_ticks) 0 trials) );
    ( "trials",
      Json.List
        (List.map
           (fun t ->
              Json.Obj
                (("steal_ticks", Json.Int t.steal_ticks)
                 :: List.map (fun (k, v, _) -> (k, Json.Float v)) (readings t)))
           trials) );
  ]

let per_layer ~(w : Workloads.t) ~window_ref ~trials (l : Layers.t) =
  let t = List.hd trials in
  let d = delta t.pre t.post in
  let f = float_of_int in
  let window_n = f (Array.length w.Workloads.window) in
  let client_p50_us = median (List.map (reading "latency_p50_ms") trials) *. 1e3 in
  let evaluations =
    Array.fold_left
      (fun n line ->
         match (Protocol.parse_line line).Protocol.request with
         | Ok (Protocol.Evaluate _) -> n + 1
         | _ -> n)
      0 w.Workloads.window
  in
  let hits = d "cache.hits" + d "solver_cache.hits"
  and lookups =
    d "cache.hits" + d "cache.misses" + d "solver_cache.hits" + d "solver_cache.misses"
  in
  let whole k = get t.post k - get t.start k in
  [
    metric "server.rtt_overhead_us" (client_p50_us -. l.Layers.router_p50_us) "us";
    metric "server.batch_size_mean"
      (f (t.post.requests - t.pre.requests) /. f (max 1 (t.post.batches - t.pre.batches)))
      "req/batch";
    metric "protocol.parse_us" l.Layers.parse_us "us";
    metric "protocol.serialize_us" l.Layers.serialize_us "us";
    metric "protocol.reply_bytes_mean"
      (Array.fold_left (fun a r -> a +. f (String.length r + 1)) 0. window_ref /. window_n)
      "bytes";
    metric "router.handoff_us" (l.Layers.router_p50_us -. l.Layers.batch_p50_us) "us";
    metric "batch.eval_us" l.Layers.batch_p50_us "us";
    metric "cache.hit_ratio" (if lookups = 0 then 0. else f hits /. f lookups) "ratio";
    metric "cache.misses" (f (d "cache.misses")) "count";
    metric "cache.growths" (f (d "cache.growths")) "count";
    metric "cache.evictions" (f (d "cache.evictions")) "count";
    metric "cache.find_us" l.Layers.cache_find_us "us";
    metric "dp.cells_filled" (f (d "kernel.cells_filled")) "count";
    metric "dp.candidates_visited" (f (d "kernel.candidates_visited")) "count";
    metric "dp.dc_splits" (f (d "kernel.dc_splits")) "count";
    metric "dp.fill_ns_per_cell" l.Layers.kernel.Layers.fill_ns_per_cell "ns";
    metric "dp.bp_lookups" (f (d "kernel.bp_lookups")) "count";
    metric "dp.lookup_ns" l.Layers.kernel.Layers.lookup_ns "ns";
    metric "game.memo_hits_per_eval"
      (if evaluations = 0 then 0. else f (d "game.memo_hits") /. f evaluations)
      "count";
    metric "game.eval_us" l.Layers.game_eval_us "us";
    metric "store.warm_ms" l.Layers.warm_ms "ms";
    metric "store.bank_hits" (f (whole "bank.hits")) "count";
    metric "store.load_failures" (f (whole "bank.load_failures")) "count";
    metric "store.resident_compressed_mb"
      (f (get t.post "bank.resident_compressed_bytes") /. 1048576.)
      "MB";
    metric "par.parallel_fills" (f (d "kernel.parallel_fills")) "count";
    metric "par.steals" (f l.Layers.steals) "count";
    metric "gc.minor_words_per_req" l.Layers.minor_words_per_req "words";
    metric "gc.major_collections_per_kreq" l.Layers.major_collections_per_kreq "count";
    metric "trace.reconcile_error" l.Layers.reconcile_error "ratio";
    metric "trace.overhead" l.Layers.overhead "ratio";
  ]

(* --- the run ---------------------------------------------------------- *)

(* The traced in-process replay: per-layer metrics, written to
   .perfbench/layers-*.json too, plus the failures it found. *)
let traced ~args ~(w : Workloads.t) ~bank_dir ~warm_ref ~window_ref ~trials =
  let bank =
    Option.map
      (fun d ->
         match Store.Bank.open_dir ~create:false d with
         | Ok b -> b
         | Error e -> failwith (Cyclesteal.Error.to_string e))
      bank_dir
  in
  let out kind ext =
    Printf.sprintf "%s/%s-%s-seed%d.%s" work_dir kind w.Workloads.name args.seed ext
  in
  let l =
    Layers.run ~w ~bank
      ~expected:(Array.append warm_ref window_ref)
      ~spans_path:(out "spans" "jsonl")
  in
  let metrics = per_layer ~w ~window_ref ~trials l in
  Out_channel.with_open_bin (out "layers" "json")
    (fun oc -> output_string oc (Json.to_string (Json.Obj metrics) ^ "\n"));
  let errors =
    (if l.Layers.mismatches > 0 then
       [ Printf.sprintf "%d in-process replies differ from the reference" l.Layers.mismatches ]
     else [])
    @
    if l.Layers.reconcile_error > Layers.tolerance then
      [
        Printf.sprintf "span self times miss the in-process total by %.1f%% (tolerance %.0f%%)"
          (100. *. l.Layers.reconcile_error) (100. *. Layers.tolerance);
      ]
    else []
  in
  let notes =
    [
      ( "self_time_share",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) l.Layers.self_share) );
      ("reconcile_tolerance", Json.Float Layers.tolerance);
    ]
  in
  (metrics, notes, errors)

let main () =
  let args = parse_args () in
  let w =
    match Workloads.make args.workload ~seed:args.seed with
    | Some w -> w
    | None ->
      failwith
        ("unknown workload " ^ args.workload ^ " (expected "
         ^ String.concat ", " Workloads.names ^ ")")
  in
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  let load0 = Daemon.loadavg_1m () in
  let bank_dir =
    Option.map
      (fun spec ->
         let dir =
           Printf.sprintf "%s/bank-%s-seed%d-%d" work_dir w.Workloads.name args.seed
             (Unix.getpid ())
         in
         remove_tree dir;
         run_process (Filename.concat args.bin "csched.exe")
           (Workloads.precompute_args spec ~dir);
         dir)
      w.Workloads.bank
  in
  (* at_exit, so an interrupted run removes its bank too. *)
  Option.iter (fun dir -> at_exit (fun () -> remove_tree dir)) bank_dir;
  let warm_ref = reference w.Workloads.warmup in
  let window_ref = reference w.Workloads.window in
  let warm_lines = with_newline w.Workloads.warmup
  and window_lines = with_newline w.Workloads.window in
  let budget_ns = int_of_float (args.seconds *. 1e9) in
  let hard_stop = Daemon.now_ns () + 120_000_000_000 in
  (* At least three trials, and enough samples for p99. *)
  let rec loop acc measured =
    let samples = List.length acc * Array.length window_lines in
    if (measured >= budget_ns && List.length acc >= 3 && samples >= 10_000)
       || Daemon.now_ns () > hard_stop
    then List.rev acc
    else
      let t =
        trial ~args ~w ~bank_dir ~warm_lines ~window_lines ~warm_ref ~window_ref
      in
      loop (t :: acc) (measured + t.window.Loadgen.elapsed_ns)
  in
  let trials = loop [] 0 in
  let attempted = (Array.length warm_lines + Array.length window_lines) * List.length trials in
  let failed =
    List.fold_left
      (fun a t -> a + t.warm.Loadgen.mismatch_count + t.window.Loadgen.mismatch_count)
      0 trials
  in
  let report lines expected (r : Loadgen.result) =
    List.iter
      (fun (j, reply) ->
         Printf.eprintf
           "perfbench: reply mismatch\n  line:     %s\n  expected: %s\n  got:      %s\n"
           lines.(j) expected.(j) reply)
      r.Loadgen.mismatches
  in
  List.iter
    (fun t ->
       report w.Workloads.warmup warm_ref t.warm;
       report w.Workloads.window window_ref t.window)
    trials;
  let digest = source_digest () in
  let metrics, notes, errors =
    if args.trace then traced ~args ~w ~bank_dir ~warm_ref ~window_ref ~trials
    else
      ( end_to_end trials
          ~success_rate:(float_of_int (attempted - failed) /. float_of_int attempted),
        [],
        [] )
  in
  let errors = determinism ~w ~seed:args.seed ~digest trials @ errors in
  List.iter (fun e -> Printf.eprintf "perfbench: %s\n" e) errors;
  let fp = Json.to_string (Json.Obj (fingerprint ~args ~w ~digest ~load0 ~trials @ notes)) in
  print_endline fp;
  Out_channel.with_open_gen [ Open_append; Open_creat ] 0o644 (work_dir ^ "/runs.jsonl")
    (fun oc -> output_string oc (fp ^ "\n"));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0 && errors = []));
            ("attempted", Json.Int attempted); ("failed", Json.Int failed);
            ("metrics", Json.Obj metrics);
          ]))

let () =
  (* A dead daemon must surface as an error, and an interrupted run must
     still stop its daemon: exit runs the at_exit teardown. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 1)))
    [ Sys.sigint; Sys.sigterm ];
  match main () with
  | () -> exit 0
  | exception e ->
    Printf.eprintf "perfbench: %s\n" (Printexc.to_string e);
    exit 1
