(* The persistent simulation service behind `rcc serve`: see
   server.mli for the contract. *)

let version = "1.0.0"

type config = {
  host : string;
  port : int;
  backlog : int;
  max_inflight : int;
  max_body : int;
  deadline_s : float;
  access_log : bool;
  slow_ms : float option;
  trace_capacity : int;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 8080;
    backlog = 16;
    max_inflight = 64;
    max_body = 1 lsl 20;
    deadline_s = 30.0;
    access_log = false;
    slow_ms = None;
    trace_capacity = 512;
  }

type t = {
  cfg : config;
  ctx : Rc_harness.Experiments.ctx;
  store : Store.t option;
  lfd : Unix.file_descr;
  port : int;
  stats : Stats.t;
  reqs : Reqtrace.sink;
  kmu : Mutex.t;  (* guards [kernels] *)
  kernels : (string, Rc_check.Gen.spec) Hashtbl.t;
  started : float;
  next_id : int Atomic.t;
  stopping : bool Atomic.t;
  mu : Mutex.t;
  drained : Condition.t;
  mutable inflight : int;
  mutable served : int;
  mutable closed_early : int;
}

(* Split out of [create] so the prefork parent can open the listener
   once, before any worker (or any domain) exists, and hand the
   inherited fd to each worker's [create ~listener].  Close-on-exec:
   the listener must not leak into exec'd subprocesses — fork-only
   children (the prefork workers) still inherit it, since the flag
   acts at exec, not fork. *)
let create_listener config =
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.set_close_on_exec lfd;
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  (match
     Unix.bind lfd
       (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port))
   with
  | () -> ()
  | exception e ->
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      raise e);
  Unix.listen lfd config.backlog;
  let port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  (lfd, port)

let create ?(config = default_config) ?listener ?store ctx =
  let lfd, port =
    match listener with
    | Some (fd, port) -> (fd, port)
    | None -> create_listener config
  in
  (match store with
  | None -> ()
  | Some s ->
      Rc_harness.Experiments.set_store ctx ~probe:(Store.probe s)
        ~publish:(Store.publish s));
  {
    cfg = config;
    ctx;
    store;
    lfd;
    port;
    stats = Stats.create ();
    reqs = Reqtrace.sink ~capacity:config.trace_capacity ();
    kmu = Mutex.create ();
    kernels = Hashtbl.create 16;
    started = Unix.gettimeofday ();
    next_id = Atomic.make 1;
    stopping = Atomic.make false;
    mu = Mutex.create ();
    drained = Condition.create ();
    inflight = 0;
    served = 0;
    closed_early = 0;
  }

let port t = t.port
let stop t = Atomic.set t.stopping true
let inflight t = Mutex.protect t.mu (fun () -> t.inflight)
let served t = Mutex.protect t.mu (fun () -> t.served)
let closed_early t = Mutex.protect t.mu (fun () -> t.closed_early)
let trace_chrome t = Reqtrace.chrome t.reqs
let uptime_s t = Unix.gettimeofday () -. t.started

(* A fresh server-assigned request id; clients may override with an
   X-Request-Id header of their own. *)
let fresh_id t = Printf.sprintf "r%06d" (Atomic.fetch_and_add t.next_id 1)

(* --- routing -------------------------------------------------------------- *)

let json_ok j = (200, [], Rc_obs.Json.to_string j ^ "\n")
let err status detail = (status, [], Http.error_body ~status ~detail)

(* --- submitted-kernel registry -------------------------------------------- *)

(* Admitted specs, keyed by their content digest ({!Rc_check.Spec.id_of}).
   Specs are small by construction (the admission budget), so the
   registry is bounded by count alone; at the cap, new submissions are
   shed rather than evicting — ids are handed to clients and must stay
   resolvable for the server's lifetime. *)
let max_kernels = 1024

(* Endpoint-local rejection with a definite status, unwound to [route]'s
   handler: the request's fault (or the registry's capacity), never a
   server crash. *)
exception Reject of int * string

let register_kernel t spec =
  let id = Rc_check.Spec.id_of spec in
  Mutex.protect t.kmu (fun () ->
      if not (Hashtbl.mem t.kernels id) then
        if Hashtbl.length t.kernels >= max_kernels then
          raise
            (Reject
               ( 503,
                 Fmt.str
                   "kernel registry is full (%d kernels); re-run existing \
                    kernels by id or restart the server"
                   max_kernels ))
        else Hashtbl.add t.kernels id spec);
  id

let kernel_count t = Mutex.protect t.kmu (fun () -> Hashtbl.length t.kernels)

(* Resolve a request's kernel selector to the bench it runs as.  An
   inline spec is admitted (and registered) on the spot, so the
   response's kernel id is immediately re-runnable. *)
let bench_of_source t (src : Payload.kernel_source) =
  match src with
  | Payload.K_bench b -> b
  | Payload.K_id id -> (
      match Mutex.protect t.kmu (fun () -> Hashtbl.find_opt t.kernels id) with
      | Some spec -> Rc_check.Spec.bench_of spec
      | None ->
          raise
            (Reject
               ( 404,
                 Fmt.str
                   "unknown kernel %S; submit its spec through POST /compile \
                    first"
                   id )))
  | Payload.K_spec spec ->
      ignore (register_kernel t spec);
      Stats.record_spec t.stats ~outcome:"admitted";
      Rc_check.Spec.bench_of spec

(* Run the lockstep admission oracle over a compiled kernel; agreement
   returns the verdict JSON for the response, divergence rejects the
   request with the differential report. *)
let oracle_gate t rc ~cycles c =
  let v = Reqtrace.time rc "oracle" (fun () -> Rc_check.Spec.oracle ~cycles c) in
  match v with
  | Rc_check.Spec.Agree _ ->
      Stats.record_spec t.stats ~outcome:"oracle-agree";
      Rc_check.Spec.verdict_json v
  | Rc_check.Spec.Diverged r ->
      Stats.record_spec t.stats ~outcome:"oracle-diverged";
      raise
        (Reject
           (400, Fmt.str "admission oracle diverged: %a" Rc_check.Report.pp r))

(* The typed spec-error split carried to the wire: [Malformed] 400,
   [Too_large] (an admission-budget overrun) 413. *)
let spec_err t = function
  | Rc_check.Spec.Malformed m -> err 400 m
  | Rc_check.Spec.Too_large m ->
      Stats.record_spec t.stats ~outcome:"rejected-limit";
      err 413 m

let parse_body rc body decode =
  Reqtrace.time rc "parse" (fun () ->
      match Rc_obs.Json.of_string body with
      | Error m -> Error (Rc_check.Spec.Malformed ("malformed JSON: " ^ m))
      | Ok j -> decode j)

let run_endpoint t rc body =
  match parse_body rc body Payload.run_request_of_json with
  | Error e -> spec_err t e
  | Ok rq ->
      if rq.Payload.rq_scale <> Rc_harness.Experiments.scale t.ctx then
        err 400
          (Fmt.str
             "scale %d does not match the server's --scale %d (the memo \
              tables are keyed under one scale)"
             rq.Payload.rq_scale
             (Rc_harness.Experiments.scale t.ctx))
      else begin
        let bench = bench_of_source t rq.Payload.rq_kernel in
        let c =
          Reqtrace.time rc "compile" (fun () ->
              Rc_harness.Experiments.compile_cell t.ctx bench
                rq.Payload.rq_opts)
        in
        let oracle =
          Option.map
            (fun cycles -> oracle_gate t rc ~cycles c)
            rq.Payload.rq_oracle
        in
        (* The engine that timed the cell is only known afterwards, so
           the span is recorded from explicit timestamps, tagged with
           execute/replay for the slow-request breakdown. *)
        let ts = Unix.gettimeofday () in
        let r, engine_used = Rc_harness.Experiments.simulate_cell t.ctx c in
        Reqtrace.add rc
          ~args:[ ("engine", Rc_obs.Json.Str engine_used) ]
          ~name:"simulate" ~start_s:ts
          ~dur_s:(Unix.gettimeofday () -. ts)
          ();
        Reqtrace.time rc "render" (fun () ->
            json_ok
              (Payload.run_response ?oracle ~bench:bench.Rc_workloads.Wutil.name
                 ~scale:rq.Payload.rq_scale ~engine_used c r))
      end

let compile_endpoint t rc body =
  match parse_body rc body Payload.compile_request_of_json with
  | Error (Rc_check.Spec.Malformed _ as e) ->
      Stats.record_spec t.stats ~outcome:"rejected-malformed";
      spec_err t e
  | Error e -> spec_err t e
  | Ok { Payload.cq_spec = spec; cq_oracle } ->
      let id = register_kernel t spec in
      Stats.record_spec t.stats ~outcome:"admitted";
      let bench = Rc_check.Spec.bench_of spec in
      let c =
        Reqtrace.time rc "compile" (fun () ->
            Rc_harness.Experiments.compile_cell t.ctx bench
              (Payload.default_options ()))
      in
      let oracle =
        Option.map (fun cycles -> oracle_gate t rc ~cycles c) cq_oracle
      in
      Reqtrace.time rc "render" (fun () ->
          json_ok (Payload.compile_response ?oracle ~id spec c))

let figures_response_of t rc tables_span tables =
  let tables = Reqtrace.time rc tables_span tables in
  Reqtrace.time rc "render" (fun () ->
      json_ok (Payload.figures_response t.ctx tables))

let figures_endpoint t rc body =
  match parse_body rc body Payload.figures_request_of_json with
  | Error e -> spec_err t e
  | Ok (Payload.Fq_ids ids) ->
      figures_response_of t rc "tables" (fun () ->
          List.map
            (fun id ->
              match Rc_harness.Experiments.by_id t.ctx id with
              | Some tbl -> tbl
              | None -> assert false (* ids validated by the decoder *))
            ids)
  | Ok (Payload.Fq_kernel src) ->
      let bench = bench_of_source t src in
      figures_response_of t rc "tables" (fun () ->
          Rc_harness.Experiments.kernel_figures t.ctx bench)

let metrics_json_endpoint t =
  let server =
    match Stats.to_json t.stats with
    | Rc_obs.Json.Obj fields ->
        Rc_obs.Json.Obj
          (("inflight", Rc_obs.Json.Int (inflight t))
          :: ("closed_early", Rc_obs.Json.Int (closed_early t))
          :: fields)
    | j -> j
  in
  let store_fields =
    match t.store with
    | None -> []
    | Some s -> [ ("store", Store.stats_json s) ]
  in
  json_ok
    (Rc_obs.Json.Obj
       ([
          ("server", server);
          ("experiments", Rc_harness.Experiments.metrics_json t.ctx);
        ]
       @ store_fields))

let prom_endpoint t =
  let reg = Stats.registry t.stats in
  Rc_obs.Metrics.set reg ~help:"Requests accepted and not yet finished"
    "rcc_inflight"
    (float_of_int (inflight t));
  Rc_obs.Metrics.set reg ~help:"Seconds since the server started"
    "rcc_uptime_seconds" (uptime_s t);
  Rc_obs.Metrics.set_counter reg
    ~help:"Connections closed before sending any request"
    "rcc_closed_early_total"
    (float_of_int (closed_early t));
  Rc_obs.Metrics.set reg ~help:"Kernels resident in the submission registry"
    "rcc_spec_kernels"
    (float_of_int (kernel_count t));
  (match t.store with None -> () | Some s -> Store.export_metrics s reg);
  ( 200,
    [ ("Content-Type", "text/plain; version=0.0.4; charset=utf-8") ],
    Rc_obs.Metrics.render reg
    ^ Rc_obs.Metrics.render (Rc_harness.Experiments.metrics t.ctx) )

let healthz_endpoint t =
  json_ok
    (Rc_obs.Json.Obj
       [
         ("status", Rc_obs.Json.Str "ok");
         ("uptime_s", Rc_obs.Json.Float (uptime_s t));
         ("inflight", Rc_obs.Json.Int (inflight t));
       ])

let version_endpoint t =
  json_ok
    (Rc_obs.Json.Obj
       [
         ("version", Rc_obs.Json.Str version);
         ("ocaml", Rc_obs.Json.Str Sys.ocaml_version);
         ("os", Rc_obs.Json.Str Sys.os_type);
         ("word_size", Rc_obs.Json.Int Sys.word_size);
         ("started_unix_s", Rc_obs.Json.Float t.started);
         ("uptime_s", Rc_obs.Json.Float (uptime_s t));
       ])

let route t rc (req : Http.request) =
  try
    match (req.Http.meth, req.Http.path) with
    | "GET", "/healthz" -> healthz_endpoint t
    | "GET", "/version" -> version_endpoint t
    | "GET", "/metrics" -> prom_endpoint t
    | "GET", "/metrics.json" -> metrics_json_endpoint t
    | "GET", "/trace" -> (200, [], trace_chrome t ^ "\n")
    | "POST", "/run" -> run_endpoint t rc req.Http.body
    | "POST", "/figures" -> figures_endpoint t rc req.Http.body
    | "POST", "/compile" -> compile_endpoint t rc req.Http.body
    | ( meth,
        (( "/healthz" | "/version" | "/metrics" | "/metrics.json" | "/trace"
         | "/run" | "/figures" | "/compile" ) as path) ) ->
        err 405 (Fmt.str "%s is not supported on %s" meth path)
    | _, path -> err 404 ("no route for " ^ path)
  with
  | Reject (status, detail) -> err status detail
  | Invalid_argument m ->
      (* The pipeline rejects unsatisfiable configurations (registers
         too small to allocate, malformed knob combinations) with
         Invalid_argument: the request's fault, not the server's. *)
      err 400 m
  | e -> err 500 (Printexc.to_string e)

(* --- per-connection handling ---------------------------------------------- *)

(* Closing a socket whose receive buffer still holds unread request
   bytes makes the kernel send RST, which can destroy a just-written
   response before the client reads it — exactly the error and
   load-shed paths, which answer without consuming the body.  So:
   finish our side with FIN, drain briefly until the peer closes, then
   close for real.  The drain is bounded three ways — per-read
   timeout, total byte budget, wall-clock deadline — so a client that
   keeps streaming bytes forfeits its RST protection instead of
   pinning a worker. *)
let drain_budget_bytes = 256 * 1024
let drain_deadline_s = 2.0

let graceful_close fd =
  (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO 1.0;
     let buf = Bytes.create 4096 in
     let deadline = Unix.gettimeofday () +. drain_deadline_s in
     let budget = ref drain_budget_bytes in
     let rec drain () =
       if !budget > 0 && Unix.gettimeofday () < deadline then begin
         let n = Unix.read fd buf 0 (Bytes.length buf) in
         if n > 0 then begin
           budget := !budget - n;
           drain ()
         end
       end
     in
     drain ()
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Push the finished request into the trace sink, the access log, the
   slow-request dump and the stats, in that order. *)
let complete t rc ~endpoint ~status =
  let req = Reqtrace.finish rc ~status in
  Reqtrace.push t.reqs req;
  if t.cfg.access_log then
    Fmt.epr "rcc serve: %s@." (Reqtrace.access_line req);
  (match t.cfg.slow_ms with
  | Some ms when 1000.0 *. req.Reqtrace.r_wall > ms ->
      Fmt.epr "rcc serve: %s@." (Reqtrace.breakdown_line req)
  | _ -> ());
  Stats.record t.stats ~endpoint ~status ~wall_s:req.Reqtrace.r_wall

(* [t_acc] is the accept timestamp: the request's wall clock (stats,
   spans, deadline) runs from arrival, so admission-queue wait is
   visible instead of silently excluded. *)
let handle t ~t_acc fd =
  let rc = Reqtrace.start ~t0:t_acc in
  Reqtrace.add rc ~name:"queue" ~start_s:t_acc
    ~dur_s:(Unix.gettimeofday () -. t_acc)
    ();
  (* A connection that closes before sending any request (a health
     prober, a cancelled client) is not a served request: counting it
     would skew the loadgen client-vs-server cross-check. *)
  let early = ref false in
  let finally () =
    graceful_close fd;
    Mutex.protect t.mu (fun () ->
        t.inflight <- t.inflight - 1;
        if !early then t.closed_early <- t.closed_early + 1
        else t.served <- t.served + 1;
        Condition.broadcast t.drained)
  in
  Fun.protect ~finally (fun () ->
      (* Receive/send timeouts bound the read and write phases by the
         request deadline, so a stalled client cannot pin a worker. *)
      (try
         Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.cfg.deadline_s;
         Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.cfg.deadline_s
       with Unix.Unix_error _ -> ());
      let limits =
        { Http.default_limits with Http.max_body = t.cfg.max_body }
      in
      match
        Reqtrace.time rc "read" (fun () ->
            Http.read_request ~limits (Http.reader_of_fd fd))
      with
      | Error Http.Closed -> early := true
      | Error e ->
          let status, detail =
            match e with
            | Http.Malformed m -> (400, m)
            | Http.Too_large m -> (413, m)
            | Http.Header_overflow m -> (431, m)
            | Http.Not_implemented m -> (501, m)
            | Http.Timeout ->
                (408, "request was not received before the deadline")
            | Http.Closed -> assert false
          in
          Reqtrace.identify rc ~id:(fresh_id t) ~meth:"-"
            ~path:"(bad-request)";
          Reqtrace.time rc "write" (fun () ->
              Http.write_response fd ~status
                ~headers:[ ("X-Request-Id", Reqtrace.id rc) ]
                ~body:(Http.error_body ~status ~detail)
                ());
          complete t rc ~endpoint:"(bad-request)" ~status
      | Ok req ->
          (* The id is echoed into a response header and the access
             log; CR/LF or any other control byte in a client-supplied
             value is header splitting / log injection, so such ids are
             discarded, not escaped. *)
          let rid =
            match Http.header req "x-request-id" with
            | Some v
              when v <> ""
                   && String.length v <= 128
                   && String.for_all (fun c -> c >= ' ' && c <> '\x7f') v ->
                v
            | _ -> fresh_id t
          in
          Reqtrace.identify rc ~id:rid ~meth:req.Http.meth ~path:req.Http.path;
          let status, headers, body = route t rc req in
          let headers = ("X-Request-Id", rid) :: headers in
          let wall = Unix.gettimeofday () -. t_acc in
          if wall > t.cfg.deadline_s then begin
            (* The deadline expired while computing: abandon the
               response — the client was told to give up long ago —
               but never the shared context, whose caches just got
               warmer. *)
            Stats.record_abandoned t.stats;
            complete t rc ~endpoint:req.Http.path ~status
          end
          else begin
            Reqtrace.time rc "write" (fun () ->
                Http.write_response fd ~status ~headers ~body ());
            complete t rc ~endpoint:req.Http.path ~status
          end)

let dispatch t fd =
  let t_acc = Unix.gettimeofday () in
  let admitted =
    Mutex.protect t.mu (fun () ->
        if t.inflight >= t.cfg.max_inflight then false
        else begin
          t.inflight <- t.inflight + 1;
          true
        end)
  in
  if admitted then
    Rc_par.Pool.submit (Rc_harness.Experiments.pool t.ctx) (fun () ->
        handle t ~t_acc fd)
  else begin
    (* Bounded admission: shed with 503 + Retry-After instead of
       queueing unboundedly.  A short send timeout so a dead client
       cannot stall the accept loop. *)
    Stats.record_shed t.stats;
    (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 1.0
     with Unix.Unix_error _ -> ());
    Http.write_response fd ~status:503
      ~headers:[ ("Retry-After", "1") ]
      ~body:
        (Http.error_body ~status:503
           ~detail:"server is at its in-flight request limit; retry shortly")
      ();
    graceful_close fd
  end

let run t =
  let rec loop () =
    if not (Atomic.get t.stopping) then begin
      (match Unix.select [ t.lfd ] [] [] 0.05 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          (* ~cloexec: accepted sockets must not leak into exec'd
             children of the pool domains either *)
          match Unix.accept ~cloexec:true t.lfd with
          | fd, _ -> dispatch t fd
          | exception
              Unix.Unix_error
                ( ( Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK
                  | Unix.ECONNABORTED ),
                  _,
                  _ ) ->
              ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  (* Graceful drain: stop accepting, then let every in-flight request
     complete before returning — the caller shuts the context down
     only after this point. *)
  (try Unix.close t.lfd with Unix.Unix_error _ -> ());
  Mutex.lock t.mu;
  while t.inflight > 0 do
    Condition.wait t.drained t.mu
  done;
  Mutex.unlock t.mu
