(* The traced run: the workload's lines replayed in this process through
   each layer's public functions, with spans recorded here, around the
   calls — nothing inside lib/ or bin/ is instrumented.

   Passes, each on fresh state so every pass does the same work:
   - layered, traced: parse_line, then the batch engine's single-request
     path taken apart (Cache.find_or_solve + Protocol.handle_dp_with for
     dp; Cache.with_solver + Protocol.evaluate_with_solver for evaluate;
     Protocol.handle for pure compute), then add_response.  One span per
     call: name, start, end, parent.
   - layered, untraced: the same code with tracing off — the overhead
     base, and where allocation per request is read.
   - Router.run_parsed and Batch.run_parsed as black boxes on the same
     envelopes and cache state: their difference is the cost of handing
     a request to the shard worker's domain and back.
   - the DP kernel alone: Dp.solve_with/grow on the tables the lines
     need, and value/optimal_episode lookups on their packed form. *)

open Service

let now = Daemon.now_ns

type name =
  | Request
  | Parse
  | Batch_eval
  | Cache_find
  | Dp_answer
  | Game_eval
  | Compute
  | Serialize

let names =
  [|
    (Request, "request"); (Parse, "protocol.parse"); (Batch_eval, "batch.eval");
    (Cache_find, "cache.find"); (Dp_answer, "protocol.dp_answer");
    (Game_eval, "game.eval"); (Compute, "protocol.compute");
    (Serialize, "protocol.serialize");
  |]

let index n =
  let rec go i = if fst names.(i) = n then i else go (i + 1) in
  go 0

type spans = {
  mutable len : int;
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
}

let create_spans () =
  let z () = Array.make 65536 0 in
  { len = 0; name = z (); start = z (); stop = z (); parent = z () }

let open_span s n parent =
  if s.len = Array.length s.name then begin
    let g a = Array.append a (Array.make (Array.length a) 0) in
    s.name <- g s.name;
    s.start <- g s.start;
    s.stop <- g s.stop;
    s.parent <- g s.parent
  end;
  let i = s.len in
  s.name.(i) <- index n;
  s.parent.(i) <- parent;
  s.len <- i + 1;
  s.start.(i) <- now ();
  i

let close_span s i = s.stop.(i) <- now ()

(* [f] inside a span named [n] under [parent] when tracing; [f] alone
   otherwise.  [f] receives its own span id (its children's parent). *)
let span tr n parent f =
  match tr with
  | None -> f (-1)
  | Some s ->
    let i = open_span s n parent in
    (match f i with
     | r ->
       close_span s i;
       r
     | exception e ->
       close_span s i;
       raise e)

(* The batch engine's path for a batch of one (Batch.run_parsed runs a
   singleton group through Protocol.handle), taken apart at the layer
   boundaries. *)
let evaluate tr ~cache parent (req : Protocol.request) =
  Protocol.guard (fun () ->
      match req with
      | Protocol.Dp_query { c_ticks; l; p } ->
        let dp =
          span tr Cache_find parent (fun _ ->
              Cache.find_or_solve cache ~c:c_ticks ~p ~l)
        in
        span tr Dp_answer parent (fun _ ->
            Protocol.handle_dp_with dp ~c_ticks ~l ~p)
      | Protocol.Evaluate { c; u; p; policy; periods = None } ->
        let params = Cyclesteal.Model.params ~c in
        let opp = Cyclesteal.Model.opportunity ~lifespan:u ~interrupts:p in
        let planner = Engine.Registry.find policy in
        span tr Cache_find parent (fun k ->
            Cache.with_solver cache params opp planner (fun solver ->
                span tr Game_eval k (fun _ ->
                    Protocol.evaluate_with_solver ~c ~u ~p solver)))
      | req -> span tr Compute parent (fun _ -> Protocol.handle ~cache req))

type replay = {
  wall_ns : int;  (** the whole pass *)
  minor_words : float;  (** allocated on this domain over the window *)
  major_collections : int;  (** over the window *)
  mismatches : int;
}

(* One layered pass over [lines]; the window starts at [window_from]. *)
let replay tr ~cache ~expected ~window_from lines =
  let buf = Buffer.create 4096 in
  let mismatches = ref 0 in
  let minor0 = ref 0. and major0 = ref 0 in
  let t0 = now () in
  Array.iteri
    (fun i line ->
       if i = window_from then begin
         minor0 := Gc.minor_words ();
         major0 := (Gc.quick_stat ()).Gc.major_collections
       end;
       span tr Request (-1) (fun root ->
           let env = span tr Parse root (fun _ -> Protocol.parse_line line) in
           let result =
             span tr Batch_eval root (fun k ->
                 match env.Protocol.request with
                 | Ok r -> evaluate tr ~cache k r
                 | Error e -> Error e)
           in
           span tr Serialize root (fun _ ->
               Buffer.clear buf;
               Protocol.add_response buf ~id:env.Protocol.id result));
       (* Outside every span: the check is the replay's own work, not a
          request's. *)
       if Buffer.length buf <> String.length expected.(i)
          || Buffer.contents buf <> expected.(i)
       then incr mismatches)
    lines;
  let t1 = now () in
  {
    wall_ns = t1 - t0;
    minor_words = Gc.minor_words () -. !minor0;
    major_collections = (Gc.quick_stat ()).Gc.major_collections - !major0;
    mismatches = !mismatches;
  }

(* Per-request latency of a black-box evaluation entry point, one
   request per call; envelopes are parsed outside the timed call. *)
let black_box run ~expected lines =
  let lat = Array.make (Array.length lines) 0 in
  let mismatches = ref 0 in
  Array.iteri
    (fun i line ->
       let env = Protocol.parse_line line in
       let t0 = now () in
       let outs : Batch.outcome array = run [| env |] in
       lat.(i) <- now () - t0;
       let reply =
         Protocol.response_to_string ~id:env.Protocol.id outs.(0).Batch.result
       in
       if reply <> expected.(i) then incr mismatches)
    lines;
  (lat, !mismatches)

let median_int a =
  if Array.length a = 0 then 0.
  else begin
    let a = Array.copy a in
    Array.sort compare a;
    float_of_int a.(Array.length a / 2)
  end

(* Tables the lines need, in first-use order: each identity's first
   canonical bounds and the largest it is grown to. *)
let dp_shapes lines =
  let order = ref [] and first = Hashtbl.create 16 and last = Hashtbl.create 16 in
  Array.iter
    (fun line ->
       match (Protocol.parse_line line).Protocol.request with
       | Ok (Protocol.Dp_query { c_ticks; l; p }) ->
         let k = Cache.canonical ~c:c_ticks ~p ~l in
         if not (Hashtbl.mem first c_ticks) then begin
           order := c_ticks :: !order;
           Hashtbl.add first c_ticks (k.Cache.max_p, k.Cache.max_l);
           Hashtbl.add last c_ticks (k.Cache.max_p, k.Cache.max_l)
         end
         else begin
           let mp, ml = Hashtbl.find last c_ticks in
           Hashtbl.replace last c_ticks (max mp k.Cache.max_p, max ml k.Cache.max_l)
         end
       | _ -> ())
    lines;
  List.rev_map
    (fun c -> (c, Hashtbl.find first c, Hashtbl.find last c))
    !order

type kernel = { fill_ns_per_cell : float; lookup_ns : float }

let kernel_pass ~all_lines ~window =
  let cells () = (Cyclesteal.Dp.counters ()).Cyclesteal.Dp.cells_filled in
  let cells0 = cells () in
  let fill_ns = ref 0 in
  let tables =
    List.map
      (fun (c, (p1, l1), (p2, l2)) ->
         let t0 = now () in
         let dp = Cyclesteal.Dp.solve_with ~pool:None ~c ~max_p:p1 ~max_l:l1 in
         if (p2, l2) <> (p1, l1) then Cyclesteal.Dp.grow dp ~max_p:p2 ~max_l:l2;
         fill_ns := !fill_ns + (now () - t0);
         let packed =
           Cyclesteal.Dp.of_packed ~c ~max_p:(Cyclesteal.Dp.max_p dp)
             ~max_l:(Cyclesteal.Dp.max_l dp) (Cyclesteal.Dp.to_packed dp)
         in
         (c, packed))
      (dp_shapes all_lines)
  in
  let filled = cells () - cells0 in
  let queries =
    Array.of_list
      (List.filter_map
         (fun line ->
            match (Protocol.parse_line line).Protocol.request with
            | Ok (Protocol.Dp_query { c_ticks; l; p }) ->
              Some (List.assoc c_ticks tables, p, l)
            | _ -> None)
         (Array.to_list window))
  in
  let t0 = now () in
  Array.iter
    (fun (t, p, l) ->
       ignore (Sys.opaque_identity (Cyclesteal.Dp.value t ~p ~l));
       ignore (Sys.opaque_identity (Cyclesteal.Dp.optimal_episode t ~p ~l)))
    queries;
  let lookup = now () - t0 in
  {
    fill_ns_per_cell =
      (if filled = 0 then 0. else float_of_int !fill_ns /. float_of_int filled);
    lookup_ns =
      (if queries = [||] then 0.
       else float_of_int lookup /. float_of_int (Array.length queries));
  }

type t = {
  parse_us : float;
  serialize_us : float;
  cache_find_us : float;
  game_eval_us : float;
  router_p50_us : float;
  batch_p50_us : float;
  warm_ms : float;
  steals : int;
  minor_words_per_req : float;
  major_collections_per_kreq : float;
  reconcile_error : float;
  overhead : float;
  self_share : (string * float) list;
      (** self time per span name over the in-process total; the
          roots' is "unattributed" *)
  kernel : kernel;
  mismatches : int;
}

(* Median duration (self time when [self]) of spans named [n] among
   requests [from ..]; spans of a request are contiguous, so request
   order is span order. *)
let span_median s ~self ~from n =
  let id = index n in
  let child = Array.make s.len 0 in
  for i = 0 to s.len - 1 do
    let p = s.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) + (s.stop.(i) - s.start.(i))
  done;
  let xs = ref [] in
  for i = from to s.len - 1 do
    if s.name.(i) = id then
      xs := (s.stop.(i) - s.start.(i) - if self then child.(i) else 0) :: !xs
  done;
  median_int (Array.of_list !xs)

let self_times s =
  let self = Array.make (Array.length names) 0 in
  for i = 0 to s.len - 1 do
    let d = s.stop.(i) - s.start.(i) in
    self.(s.name.(i)) <- self.(s.name.(i)) + d;
    let p = s.parent.(i) in
    if p >= 0 then self.(s.name.(p)) <- self.(s.name.(p)) - d
  done;
  self

(* The first [limit] requests' spans as JSON lines: name, start and end
   in ns relative to the first span, parent id (-1 for a request). *)
let dump_spans s ~path ~limit =
  let oc = open_out path in
  let base = if s.len > 0 then s.start.(0) else 0 in
  let roots = ref 0 in
  let i = ref 0 in
  while !i < s.len && (!roots < limit || s.parent.(!i) >= 0) do
    if s.parent.(!i) < 0 then incr roots;
    Printf.fprintf oc
      "{\"id\":%d,\"name\":\"%s\",\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d}\n"
      !i
      (snd names.(s.name.(!i)))
      (s.start.(!i) - base)
      (s.stop.(!i) - base)
      s.parent.(!i);
    incr i
  done;
  close_out oc

(* Reconciliation tolerance: the self times of the named layer spans
   (every span but the [request] roots) must account for the in-process
   total, the summed duration of the [request] spans, within this share.
   The remainder is time inside a request that no layer span covers:
   the gaps between a root's children and the span bookkeeping. *)
let tolerance = 0.05

let run ~(w : Workloads.t) ~bank ~expected ~spans_path =
  let lines = Array.append w.Workloads.warmup w.Workloads.window in
  let window_from = Array.length w.Workloads.warmup in
  let pool = Csutil.Par.Pool.create ~domains:2 in
  let fresh_cache () =
    let cache = Cache.create ~pool ?bank ~capacity:w.Workloads.capacity () in
    ignore (Cache.warm_from_bank cache);
    cache
  in
  let steals0 = Csutil.Par.Pool.steals pool in
  (* Untraced and traced passes alternate twice and each kind keeps its
     fastest, so pass order and one-off interference do not read as
     tracing overhead; the spans kept are the last traced pass's. *)
  let s = ref (create_spans ()) in
  let runs =
    List.map
      (fun traced ->
         if traced then s := create_spans ();
         ( traced,
           replay
             (if traced then Some !s else None)
             ~cache:(fresh_cache ()) ~expected ~window_from lines ))
      [ false; true; false; true ]
  in
  let fastest kind =
    List.filter (fun (k, _) -> k = kind) runs
    |> List.map snd
    |> List.sort (fun (a : replay) b -> compare a.wall_ns b.wall_ns)
    |> List.hd
  in
  let traced = fastest true and untraced = fastest false in
  let s = !s in
  let window_spans =
    let rec first_root i roots =
      if i >= s.len then s.len
      else if s.parent.(i) < 0 then
        if roots = window_from then i else first_root (i + 1) (roots + 1)
      else first_root (i + 1) roots
    in
    first_root 0 0
  in
  let med ?(self = false) n = span_median s ~self ~from:window_spans n /. 1e3 in
  let game_eval_us =
    (* A workload whose window never evaluates (dp_cold) is timed on its
       warm-up evaluations. *)
    let m = med Game_eval in
    if m > 0. then m else span_median s ~self:false ~from:0 Game_eval /. 1e3
  in
  let self = self_times s in
  let root = index Request in
  let self_sum = Array.fold_left ( + ) 0 self - self.(root) in
  let total = ref 0 in
  for i = 0 to s.len - 1 do
    if s.parent.(i) < 0 then total := !total + (s.stop.(i) - s.start.(i))
  done;
  let total = float_of_int !total in
  let batch_lat, batch_mm =
    let cache = fresh_cache () in
    black_box
      (fun envs -> Batch.run_parsed ~pool ~cache envs)
      ~expected lines
  in
  let steals = Csutil.Par.Pool.steals pool - steals0 in
  Csutil.Par.Pool.shutdown pool;
  let router =
    Router.create ~shards:1 ~domains:2 ?bank ~capacity:w.Workloads.capacity ()
  in
  let t0 = now () in
  ignore (Router.warm_from_bank router);
  let warm_ns = now () - t0 in
  let router_lat, router_mm =
    black_box (fun envs -> Router.run_parsed router envs) ~expected lines
  in
  Router.shutdown router;
  let window a = Array.sub a window_from (Array.length a - window_from) in
  let kernel = kernel_pass ~all_lines:lines ~window:w.Workloads.window in
  dump_spans s ~path:spans_path ~limit:2000;
  let n_window = float_of_int (Array.length w.Workloads.window) in
  {
    parse_us = med Parse;
    serialize_us = med Serialize;
    cache_find_us = med ~self:true Cache_find;
    game_eval_us;
    router_p50_us = median_int (window router_lat) /. 1e3;
    batch_p50_us = median_int (window batch_lat) /. 1e3;
    warm_ms = float_of_int warm_ns /. 1e6;
    steals;
    minor_words_per_req = untraced.minor_words /. n_window;
    major_collections_per_kreq =
      float_of_int untraced.major_collections /. n_window *. 1e3;
    reconcile_error = Float.abs (total -. float_of_int self_sum) /. total;
    overhead =
      float_of_int traced.wall_ns /. float_of_int untraced.wall_ns -. 1.;
    self_share =
      Array.to_list
        (Array.mapi
           (fun i (_, label) ->
              ( (if i = root then "unattributed" else label),
                float_of_int self.(i) /. total ))
           names);
    kernel;
    mismatches =
      List.fold_left (fun a (_, (r : replay)) -> a + r.mismatches) (batch_mm + router_mm) runs;
  }
