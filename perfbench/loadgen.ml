(* The closed-loop load generator: one thread, up to [nproc]
   connections multiplexed with select, one request in flight per
   connection — each simulated caller waits for its reply before it
   sends again.  Every request is timed on the client from just before
   its write to the moment its reply line is complete. *)

type result = {
  latency_ns : int array;  (** per line, index-aligned with the input *)
  elapsed_ns : int;  (** first send to last reply *)
  mismatches : (int * string) list;  (** line index, reply; first few *)
  mismatch_count : int;
}

(* [lines] carry their trailing newline; [expected.(i)] is the reply
   line [lines.(i)] must get, byte for byte (without newline). *)
let drive (conns : Daemon.conn array) (lines : string array)
    (expected : string array) =
  let n = Array.length lines and k = Array.length conns in
  let latency_ns = Array.make n 0 in
  let inflight = Array.make k (-1) and sent_at = Array.make k 0 in
  let next = ref 0 and answered = ref 0 in
  let mismatches = ref [] and mismatch_count = ref 0 in
  let send i =
    if !next < n then begin
      let j = !next in
      incr next;
      inflight.(i) <- j;
      sent_at.(i) <- Daemon.now_ns ();
      Daemon.write_all conns.(i).Daemon.fd lines.(j)
    end
    else inflight.(i) <- -1
  in
  let t0 = Daemon.now_ns () in
  for i = 0 to k - 1 do
    send i
  done;
  let fds = Array.map (fun c -> c.Daemon.fd) conns in
  let slots = List.init k Fun.id in
  while !answered < n do
    let busy = List.filter_map (fun i -> if inflight.(i) >= 0 then Some fds.(i) else None) slots in
    match Unix.select busy [] [] 60. with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> failwith "no reply from cschedd within 60 s"
    | ready, _, _ ->
      List.iter
        (fun fd ->
           let i =
             let rec find i = if fds.(i) == fd then i else find (i + 1) in
             find 0
           in
           Daemon.read_lines conns.(i) (fun reply ->
               let t = Daemon.now_ns () in
               let j = inflight.(i) in
               latency_ns.(j) <- t - sent_at.(i);
               incr answered;
               if not (String.equal reply expected.(j)) then begin
                 incr mismatch_count;
                 if !mismatch_count <= 5 then
                   mismatches := (j, reply) :: !mismatches
               end;
               send i))
        ready
  done;
  {
    latency_ns;
    elapsed_ns = Daemon.now_ns () - t0;
    mismatches = List.rev !mismatches;
    mismatch_count = !mismatch_count;
  }
