(* One cschedd child process: spawn, readiness, request/reply framing,
   /proc readings, teardown. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let secs ns = float_of_int ns /. 1e9

type conn = { fd : Unix.file_descr; chunk : Bytes.t; acc : Buffer.t }

type t = {
  pid : int;
  socket : string;
  mutable conns : conn list;
  mutable alive : bool;
}

(* Every daemon still running, so an escaping exception cannot leave
   one behind. *)
let live : t list ref = ref []

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then go (off + Unix.write_substring fd s off (len - off))
  in
  go 0

(* Read once from [c] and hand every completed line to [k]. *)
let read_lines c k =
  let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
  if n = 0 then failwith "cschedd closed the connection";
  let start = ref 0 in
  for i = 0 to n - 1 do
    if Bytes.get c.chunk i = '\n' then begin
      Buffer.add_subbytes c.acc c.chunk !start (i - !start);
      let line = Buffer.contents c.acc in
      Buffer.clear c.acc;
      start := i + 1;
      k line
    end
  done;
  Buffer.add_subbytes c.acc c.chunk !start (n - !start)

(* One request, one reply, on an otherwise idle connection. *)
let call c line =
  write_all c.fd line;
  write_all c.fd "\n";
  let reply = ref None in
  while !reply = None do
    read_lines c (fun l -> reply := Some l)
  done;
  Option.get !reply

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
    Some { fd; chunk = Bytes.create 65536; acc = Buffer.create 4096 }
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _)
    ->
    Unix.close fd;
    None

let log_tail path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> String.trim s
  | exception Sys_error _ -> ""

(* Spawn [exe args] listening on [socket] and return once the first
   request, [first], has been answered — the socket file existing is
   not enough, since a connect can race the daemon's bind.  Returns the
   daemon, the connection that carried [first], its reply, and the
   spawn-to-reply time in ns. *)
let start ~exe ~args ~socket ~log ~first =
  (try Sys.remove socket with Sys_error _ -> ());
  let t0 = now_ns () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let logfd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: args))
      devnull devnull logfd
  in
  Unix.close devnull;
  Unix.close logfd;
  let d = { pid; socket; conns = []; alive = true } in
  live := d :: !live;
  let deadline = t0 + 60_000_000_000 in
  let rec wait () =
    match connect socket with
    | Some c -> c
    | None ->
      if exited pid then begin
        d.alive <- false;
        failwith ("cschedd exited during start-up: " ^ log_tail log)
      end;
      if now_ns () > deadline then failwith "cschedd did not start in 60 s";
      Unix.sleepf 0.0005;
      wait ()
  in
  let c = wait () in
  d.conns <- [ c ];
  let reply = call c first in
  (d, c, reply, now_ns () - t0)

let open_conn d =
  match connect d.socket with
  | Some c ->
    d.conns <- c :: d.conns;
    c
  | None -> failwith "cschedd refused a second connection"

(* Close every client fd first — an idle open connection keeps the
   daemon from exiting on SIGTERM — then SIGTERM, wait a bounded time,
   and SIGKILL as the fallback. *)
let stop d =
  if d.alive then begin
    List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) d.conns;
    d.conns <- [];
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = now_ns () + 5_000_000_000 in
    let rec wait () =
      if exited d.pid then ()
      else if now_ns () > deadline then begin
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
      end
      else begin
        Unix.sleepf 0.002;
        wait ()
      end
    in
    wait ();
    d.alive <- false;
    (try Sys.remove d.socket with Sys_error _ -> ())
  end;
  live := List.filter (fun x -> x != d) !live

let () = at_exit (fun () -> List.iter stop !live)

(* --- /proc ------------------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let words s =
  String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) s)
  |> List.filter (( <> ) "")

(* CPU time of every thread of [pid], in ns, from the per-task
   schedstat.  A missing schedstat raises: the figure has no other
   source of the same resolution. *)
let cpu_ns pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
       let s = read_file (Printf.sprintf "%s/%s/schedstat" dir tid) in
       acc + int_of_string (List.hd (words (String.trim s))))
    0 (Sys.readdir dir)

(* Peak resident set (VmHWM) in kB. *)
let vm_hwm_kb pid =
  read_file (Printf.sprintf "/proc/%d/status" pid)
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
      match words l with
      | "VmHWM:" :: kb :: _ -> Some (int_of_string kb)
      | _ -> None)
  |> Option.value ~default:0

(* Host-wide steal time in USER_HZ ticks (the 8th field of the cpu
   line of /proc/stat). *)
let steal_ticks () =
  match read_file "/proc/stat" with
  | s -> (
    match words (List.hd (String.split_on_char '\n' s)) with
    | "cpu" :: fields when List.length fields >= 8 -> int_of_string (List.nth fields 7)
    | _ -> 0)
  | exception Sys_error _ -> 0

let loadavg_1m () =
  match read_file "/proc/loadavg" with
  | s -> float_of_string (List.hd (words s))
  | exception _ -> 0.
