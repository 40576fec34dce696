(** Domain-safe, single-flight memo table.

    [find_or_compute] guarantees each key is computed exactly once even
    when several domains ask for it concurrently: the first caller
    computes while later callers block on a condition variable until
    the value (or the failure) is published.  The compute function runs
    outside the lock, so independent keys are computed in parallel. *)

type 'v state = Running | Done of 'v | Failed of exn

type ('k, 'v) t = {
  lock : Mutex.t;
  published : Condition.t;
  tbl : ('k, 'v state) Hashtbl.t;
}

let create n =
  {
    lock = Mutex.create ();
    published = Condition.create ();
    tbl = Hashtbl.create n;
  }

let find_or_compute t k f =
  Mutex.lock t.lock;
  let rec await () =
    match Hashtbl.find_opt t.tbl k with
    | Some (Done v) ->
        Mutex.unlock t.lock;
        v
    | Some (Failed e) ->
        Mutex.unlock t.lock;
        raise e
    | Some Running ->
        Condition.wait t.published t.lock;
        await ()
    | None -> (
        Hashtbl.replace t.tbl k Running;
        Mutex.unlock t.lock;
        match f () with
        | v ->
            Mutex.lock t.lock;
            Hashtbl.replace t.tbl k (Done v);
            Condition.broadcast t.published;
            Mutex.unlock t.lock;
            v
        | exception e ->
            Mutex.lock t.lock;
            Hashtbl.replace t.tbl k (Failed e);
            Condition.broadcast t.published;
            Mutex.unlock t.lock;
            raise e)
  in
  await ()

let length t =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.tbl in
  Mutex.unlock t.lock;
  n

let bindings t =
  Mutex.lock t.lock;
  let rows =
    Hashtbl.fold
      (fun k v acc -> match v with Done v -> (k, v) :: acc | _ -> acc)
      t.tbl []
  in
  Mutex.unlock t.lock;
  rows
