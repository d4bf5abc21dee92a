(* Domain-based work pool (OCaml 5): fan a fixed job list out over a
   bounded set of domains while keeping result order deterministic.

   Design notes:
   - Jobs are indexed up front; workers pull the next index from a
     mutex-protected counter and write into a per-index slot, so the
     result list is always in input order regardless of scheduling.
   - The caller's domain is itself one of the workers: [jobs = 4] means
     at most 4 domains total, not 4 spawned helpers.
   - The pool is created and torn down per call.  Experiment fan-out jobs
     are seconds-long, so domain spawn cost (~10 us) is irrelevant and a
     persistent pool would only add lifecycle hazards.
   - The first exception raised by any job is re-raised in the caller
     once every worker has stopped; remaining queued jobs are abandoned. *)

type 'a queue = {
  mutex : Mutex.t;
  not_done : Condition.t;  (* signalled when a worker finishes its last job *)
  mutable next : int;
  mutable running : int;  (* workers still executing *)
  mutable failure : exn option;
}

(* Test override for the machine's domain budget: 0 means "ask the
   runtime".  [with_domain_limit 1] simulates a 1-core machine (the
   oversubscription clamp becomes observable anywhere), and a limit
   above the real core count forces genuine multi-domain fan-out on
   small CI machines so merge paths are exercised. *)
let domain_limit = Atomic.make 0

let available_domains () =
  match Atomic.get domain_limit with
  | 0 -> max 1 (Domain.recommended_domain_count ())
  | limit -> limit

let with_domain_limit limit f =
  if limit < 1 then invalid_arg "Pool.with_domain_limit: limit must be >= 1";
  let prev = Atomic.get domain_limit in
  Atomic.set domain_limit limit;
  Fun.protect ~finally:(fun () -> Atomic.set domain_limit prev) f

let clamp_jobs jobs =
  if jobs < 1 then invalid_arg "Pool: jobs must be >= 1";
  min jobs (available_domains ())

let default_jobs () = available_domains ()

let with_lock q f =
  Mutex.lock q.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock q.mutex) f

(* Pull the next job index, or None when the queue is drained or poisoned. *)
let take q n =
  with_lock q (fun () ->
      if q.failure <> None || q.next >= n then None
      else begin
        let i = q.next in
        q.next <- q.next + 1;
        Some i
      end)

let poison q e =
  with_lock q (fun () -> if q.failure = None then q.failure <- Some e)

let map_array ?(cap = true) ~jobs f items =
  let n = Array.length items in
  let workers =
    if cap then min (clamp_jobs jobs) (max 1 n)
    else begin
      if jobs < 1 then invalid_arg "Pool: jobs must be >= 1";
      min jobs (max 1 n)
    end
  in
  if workers <= 1 || n <= 1 then Array.map f items
  else begin
    let q =
      {
        mutex = Mutex.create ();
        not_done = Condition.create ();
        next = 0;
        running = workers;
        failure = None;
      }
    in
    let results = Array.make n None in
    let rec work () =
      match take q n with
      | None ->
        with_lock q (fun () ->
            q.running <- q.running - 1;
            if q.running = 0 then Condition.broadcast q.not_done)
      | Some i ->
        (match f items.(i) with
         | v -> results.(i) <- Some v
         | exception e -> poison q e);
        work ()
    in
    let spawned = Array.init (workers - 1) (fun _ -> Domain.spawn work) in
    work ();
    (* The caller's worker is done; wait for the spawned ones. *)
    with_lock q (fun () ->
        while q.running > 0 do
          Condition.wait q.not_done q.mutex
        done);
    Array.iter Domain.join spawned;
    match q.failure with
    | Some e -> raise e
    | None ->
      Array.map
        (function
          | Some v -> v
          | None -> assert false (* no failure implies every slot was filled *))
        results
  end

let map ?cap ~jobs f xs = Array.to_list (map_array ?cap ~jobs f (Array.of_list xs))

let iter ?cap ~jobs f xs = ignore (map ?cap ~jobs f xs)
