(* smoke — end-to-end scenarios for `rcc serve`:

     smoke <rcc.exe> serve|spec|store

   Each scenario is a table of steps against one server at a time:
   boot it, send requests and check what comes back, stop it and check
   its stderr.  The scenarios assert what DESIGN.md promises:

   - serve (sections 15 and 16): /healthz is live; /run is
     byte-identical to `rcc run --json` (pass wall_s normalised), and
     the second identical /run to `--engine replay`, replayed from the
     trace cache; the /metrics scrape is saved to metrics.prom for
     `jsonck --prom`; SIGTERM with a /run in flight still completes it,
     the server exits 0, and its stderr carries the drain narration,
     the access log and the slow-request span breakdowns.
   - spec (section 19): /compile on the reference spec (also written to
     spec.json for the CLI side) assigns its pinned kernel id, matches
     `rcc compile --json` and is idempotent; /run by kernel id matches
     `rcc run --spec --json` cold and under `--engine replay` warm; an
     over-budget spec is shed with 413 and a malformed one with 400
     naming the JSON path, and the server stays healthy.
   - store (section 17): two sequential servers on one store.d.  The
     first executes and publishes its /run, then replays it warm; the
     second, a fresh process, replays its very first /run from disk,
     byte-identical to the first server's warm answer, and reports
     store hits on /metrics.json and /metrics.

   Any failed check, and the 120 s watchdog, stops every server this
   process booted before it exits 1 (see serveclient.ml). *)

let fail = Serveclient.fail

(* --- the step vocabulary ------------------------------------------------ *)

type check =
  | Cli of string list
      (** equal to the stdout of `rcc ARGS`, both wall_s-normalised *)
  | Same_as of string  (** equal to an earlier response, wall_s-normalised *)
  | Str of string list * string  (** the JSON string at a path *)
  | Int_ge of string list * int  (** a JSON integer at a path, at least n *)
  | Num of string list  (** a JSON number at a path *)
  | Contains of string
  | Lacks of string
  | Save of string  (** write the body to a file *)

type request = {
  label : string;  (** names the response for [Same_as] and messages *)
  meth : string;
  path : string;
  body : string;
  status : int;
  checks : check list;
}

type step =
  | Write of string * string  (** a file the CLI side reads *)
  | Boot of string list  (** `rcc serve --port 0 ARGS` *)
  | Send of request
  | Sigterm_during of request  (** SIGTERM while the request is in flight *)
  | Stop of string list  (** exit 0 after SIGTERM; needles in its stderr *)

let req ?(status = 200) meth label path body checks =
  { label; meth; path; body; status; checks }

let get ?status label path checks = Send (req ?status "GET" label path "" checks)

let post ?status label path body checks =
  Send (req ?status "POST" label path body checks)

(* --- scenarios ---------------------------------------------------------- *)

let run_cmp = {|{"bench":"cmp","rc":true,"core_int":8}|}
let cmp_cli = [ "run"; "cmp"; "--rc"; "--core-int"; "8"; "--json" ]
let replay_cli args = args @ [ "--engine"; "replay" ]
let engine e = Str ([ "engine" ], e)

let serve =
  [
    Boot [ "--jobs"; "2"; "--slow-ms"; "1" ];
    get "/healthz" "/healthz"
      [ Str ([ "status" ], "ok"); Num [ "uptime_s" ]; Int_ge ([ "inflight" ], 0) ];
    post "cold /run" "/run" run_cmp [ Cli cmp_cli ];
    post "warm /run" "/run" run_cmp [ Cli (replay_cli cmp_cli); engine "replay" ];
    get "/metrics.json" "/metrics.json"
      [ Int_ge ([ "experiments"; "trace_cache"; "hits" ], 1) ];
    get "/metrics" "/metrics"
      [
        Contains "# TYPE rcc_requests_total counter";
        Contains "# TYPE rcc_request_duration_seconds histogram";
        Save "metrics.prom";
      ];
    (* A fresh configuration, so the drained work is real execution. *)
    Sigterm_during
      (req "POST" "draining /run" "/run" {|{"bench":"eqn","rc":true,"issue":8}|}
         [ Cli [ "run"; "eqn"; "--rc"; "--issue"; "8"; "--json" ] ]);
    Stop
      [
        "rcc serve: drained"; "access id="; "slow request id="; "breakdown:";
        "compile="; "render="; "simulate(execute)="; "simulate(replay)=";
      ];
  ]

(* The committed corpus fixture test/corpus/spec-k3dcde33718c5.json;
   its id is pinned there by the `corpus spec fixtures admissible`
   test, and re-pinned here against the live server. *)
let spec_doc =
  {|{"seed":0,"slots":8,"funcs":[{"arity":0,"nvars":2,"nfvars":1,"body":[["set",0,["const","1"]],["loop",1,6,[["set",0,["bin","add",["var",0],["var",1]]],["store",1,["var",0]],["load",1,1]]],["emit",["var",0]]]}]}|}

let spec_id = "k3dcde33718c5"

let oversize_doc =
  {|{"seed":0,"slots":100000,"funcs":[{"arity":0,"nvars":1,"nfvars":1,"body":[["emit",["var",0]]]}]}|}

let spec_cli =
  [ "run"; "--spec"; "spec.json"; "--rc"; "--core-int"; "8"; "--json" ]

let run_kernel = Printf.sprintf {|{"kernel":%S,"rc":true,"core_int":8}|} spec_id

let spec =
  [
    Write ("spec.json", spec_doc);
    Boot [ "--jobs"; "2" ];
    post "/compile" "/compile" spec_doc
      [ Str ([ "kernel" ], spec_id); Cli [ "compile"; "spec.json"; "--json" ] ];
    post "resubmitted /compile" "/compile" spec_doc [ Str ([ "kernel" ], spec_id) ];
    post "cold /run" "/run" run_kernel [ Cli spec_cli ];
    post "warm /run" "/run" run_kernel
      [ Cli (replay_cli spec_cli); engine "replay" ];
    post ~status:413 "over-budget /compile" "/compile" oversize_doc
      [ Contains "limit" ];
    post ~status:400 "malformed /compile" "/compile" {|{"funcs":3}|}
      [ Contains "$.funcs" ];
    get "/healthz after the rejections" "/healthz" [];
    Stop [];
  ]

let store_args = [ "--jobs"; "2"; "--quiet"; "--store"; "store.d" ]

let store =
  [
    Boot store_args;
    post "server #1 first /run (cold store)" "/run" run_cmp [ engine "execute" ];
    post "server #1 second /run" "/run" run_cmp [ engine "replay" ];
    get "server #1 /metrics.json" "/metrics.json"
      [ Int_ge ([ "store"; "published" ], 1) ];
    Stop [ "drained" ];
    Boot store_args;
    post "server #2 first /run" "/run" run_cmp
      [ engine "replay"; Same_as "server #1 second /run" ];
    get "server #2 /metrics.json" "/metrics.json" [ Int_ge ([ "store"; "hits" ], 1) ];
    get "server #2 /metrics" "/metrics"
      [
        Contains "# TYPE rcc_store_hits_total counter";
        Lacks "rcc_store_hits_total 0";
      ];
    Stop [ "drained" ];
  ]

let scenarios = [ ("serve", serve); ("spec", spec); ("store", store) ]

(* --- checks ------------------------------------------------------------- *)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let json what text =
  match Rc_obs.Json.of_string text with
  | Ok j -> j
  | Error m -> fail "%s: not valid JSON (%s): %S" what m text

(* Pass wall-clock is the one nondeterministic field of the documents
   compared here: zero it everywhere before comparing bytes. *)
let normalize what text =
  let rec zero (j : Rc_obs.Json.t) : Rc_obs.Json.t =
    match j with
    | Obj fields ->
        Obj
          (List.map
             (fun (k, v) ->
               if k = "wall_s" then (k, Rc_obs.Json.Float 0.) else (k, zero v))
             fields)
    | List l -> List (List.map zero l)
    | (Null | Bool _ | Int _ | Float _ | Str _) as leaf -> leaf
  in
  Rc_obs.Json.to_string (zero (json what text))

let cli rcc args =
  let cmd =
    String.concat " " (List.map Filename.quote (rcc :: args)) ^ " 2>/dev/null"
  in
  let ic = Unix.open_process_in cmd in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | _ -> fail "`%s` failed" cmd

let check ~rcc ~responses r body c =
  let at path =
    List.fold_left
      (fun j k -> Option.bind j (Rc_obs.Json.member k))
      (Some (json r.label body)) path
  in
  let show path v =
    Printf.sprintf "$.%s is %s" (String.concat "." path)
      (match v with Some v -> Rc_obs.Json.to_string v | None -> "absent")
  in
  match c with
  | Cli args ->
      let shown = "rcc " ^ String.concat " " args in
      if normalize r.label body <> normalize shown (cli rcc args) then
        fail "%s differs from `%s` after wall_s normalisation" r.label shown
  | Same_as earlier ->
      let before = Hashtbl.find responses earlier in
      if normalize r.label body <> normalize earlier before then
        fail "%s differs from %s after wall_s normalisation" r.label earlier
  | Str (path, want) -> (
      match at path with
      | Some (Rc_obs.Json.Str s) when s = want -> ()
      | v -> fail "%s: %s, wanted %S" r.label (show path v) want)
  | Int_ge (path, n) -> (
      match at path with
      | Some (Rc_obs.Json.Int v) when v >= n -> ()
      | v -> fail "%s: %s, wanted an integer >= %d" r.label (show path v) n)
  | Num path -> (
      match at path with
      | Some (Rc_obs.Json.Int _ | Rc_obs.Json.Float _) -> ()
      | v -> fail "%s: %s, wanted a number" r.label (show path v))
  | Contains needle ->
      if not (contains ~needle body) then
        fail "%s lacks %S: %S" r.label needle body
  | Lacks needle ->
      if contains ~needle body then fail "%s carries %S" r.label needle
  | Save file -> Out_channel.with_open_bin file (fun oc -> output_string oc body)

(* --- driver ------------------------------------------------------------- *)

let () =
  let rcc, name, steps =
    match Sys.argv with
    | [| _; rcc; name |] when List.mem_assoc name scenarios ->
        (Serveclient.executable rcc, name, List.assoc name scenarios)
    | _ ->
        prerr_endline "usage: smoke <rcc.exe> serve|spec|store";
        exit 2
  in
  Serveclient.watchdog 120;
  let say fmt = Printf.printf ("smoke %s: " ^^ fmt ^^ "\n%!") name in
  let server = ref None in
  let current () =
    match !server with Some s -> s | None -> fail "no server is running"
  in
  let responses = Hashtbl.create 8 in
  let answered r = function
    | Ok (status, body) ->
        if status <> r.status then
          fail "%s: status %d, wanted %d; body %S" r.label status r.status body;
        List.iter (check ~rcc ~responses r body) r.checks;
        Hashtbl.replace responses r.label body;
        say "%s ok" r.label
    | Error e -> fail "%s: %s" r.label (Printexc.to_string e)
  in
  let send s r =
    try
      Ok
        (Serveclient.request ~port:s.Serveclient.port ~meth:r.meth ~path:r.path
           ~body:r.body ())
    with e -> Error e
  in
  List.iter
    (function
      | Write (file, text) ->
          Out_channel.with_open_bin file (fun oc -> output_string oc text)
      | Boot args ->
          let s = Serveclient.spawn rcc args in
          server := Some s;
          say "server pid %d on port %d" s.Serveclient.pid s.Serveclient.port
      | Send r -> answered r (send (current ()) r)
      | Sigterm_during r ->
          let s = current () in
          let d = Domain.spawn (fun () -> send s r) in
          (* Time for the request to be accepted and admitted. *)
          Unix.sleepf 0.15;
          Serveclient.sigterm s;
          answered r (Domain.join d)
      | Stop needles ->
          let err = Serveclient.stop (current ()) in
          server := None;
          List.iter
            (fun needle ->
              if not (contains ~needle err) then
                fail "server stderr lacks %S: %S" needle err)
            needles;
          say "server exited 0")
    steps;
  say "ok"
