(* pb — the in-process half of the benchmark (perfbench/run.py drives
   it; see perfbench/README.md).

     pb plan --seed N --hot K --count M --submit-share F
         the seeded serve-mixed request stream: K warm-up lines (the
         hot cells), then M request lines, one JSON object per line
     pb sweep-walk --cells FILE --store DIR [--chrome FILE]
         walk every cell of a `bench --metrics FILE` dump through the
         layer functions with spans on, check each result against the
         harness's, print the layer ledger
     pb serve-walk --exchange FILE --store DIR [--chrome FILE]
         replay a served request sequence in-process, check every 200
         body against the in-process response, print the ledger
     pb calibrate
         for each line N on stdin, the CPU seconds of N runs of a fixed
         piece of work (calib.ml), as one line of JSON

   The other subcommands print one JSON document on stdout and exit 1
   on a failed check. *)

module J = Rc_obs.Json

let die fmt = Fmt.kstr (fun m -> prerr_endline ("pb: " ^ m); exit 2) fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_json what text =
  match J.of_string text with Ok j -> j | Error m -> die "%s: %s" what m

let member k j =
  match J.member k j with Some v -> v | None -> die "missing field %S" k

let str = function J.Str s -> s | _ -> die "expected a string"
let int = function J.Int n -> n | _ -> die "expected an integer"

(* --- plan ------------------------------------------------------------------ *)

let hot_body (b, rc, core_int, issue) =
  J.to_string
    (J.Obj
       [
         ("bench", J.Str b);
         ("rc", J.Bool rc);
         ("core_int", J.Int core_int);
         ("issue", J.Int issue);
       ])

let submit_body spec =
  J.to_string
    (J.Obj
       [
         ("spec", Rc_check.Gen.to_json spec);
         ("rc", J.Bool true);
         ("core_int", J.Int 16);
         ("issue", J.Int 4);
       ])

let line cls body =
  print_endline
    (J.to_string (J.Obj [ ("class", J.Str cls); ("body", J.Str body) ]))

(* Submitted kernels are kept to the middle half of the generator's
   sizes (its quartiles at default settings, in spec nodes): a
   kernel's cost follows its size, and the smallest and largest
   kernels differ in cost by 10x. *)
let submit_min_size = 270
let submit_max_size = 380

(* The draws are stratified so that two seeds differ in which cells
   and kernels they use, not in how much of each kind of work they
   ask for: the hot set holds the same number of cells of every
   benchmark, half of them with RC, and each benchmark-and-RC pair
   takes its core sizes in turn from a seeded starting point, so a
   hot set of [8 * benchmarks] cells holds every core size of every
   pair and the seed only draws issue rates (a cell's cost follows its
   core size far more than its issue rate); hot requests cycle
   through seeded permutations of the hot set; and every block of
   [1 / submit_share] requests holds exactly one submit, at a seeded
   position. *)
let plan ~seed ~hot ~count ~submit_share =
  let benches = Array.of_list (Rc_workloads.Registry.names ()) in
  let nb = Array.length benches in
  if hot < 1 || hot > 8 * nb then die "--hot must be in [1, %d]" (8 * nb);
  if submit_share <= 0. then die "--submit-share must be positive";
  let rs = Random.State.make [| 0x9e37; seed |] in
  let pick a = a.(Random.State.int rs (Array.length a)) in
  let shuffle a =
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rs (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done
  in
  let cores = [| 8; 16; 24; 32 |] in
  let first_core = Array.init (2 * nb) (fun _ -> Random.State.int rs 4) in
  let cells =
    Array.init hot (fun i ->
        let pair = i mod (2 * nb) in
        ( benches.(pair mod nb),
          pair / nb = 1,
          cores.((first_core.(pair) + (i / (2 * nb))) mod 4),
          pick [| 1; 2; 4; 8 |] ))
  in
  shuffle cells;
  Array.iter (fun c -> line "hot" (hot_body c)) cells;
  let seen = Hashtbl.create 256 in
  let next_spec = ref 0 in
  let rec fresh_spec () =
    incr next_spec;
    let spec = Rc_check.Gen.generate ((seed * 1_000_003) + !next_spec) in
    let id = Rc_check.Spec.id_of spec in
    let size = Rc_check.Gen.size spec in
    if size < submit_min_size || size > submit_max_size || Hashtbl.mem seen id
    then fresh_spec ()
    else begin
      Hashtbl.add seen id ();
      spec
    end
  in
  let order = Array.init hot Fun.id and next_hot = ref hot in
  let hot_cell () =
    if !next_hot = hot then begin
      shuffle order;
      next_hot := 0
    end;
    incr next_hot;
    cells.(order.(!next_hot - 1))
  in
  let block = max 1 (Float.to_int (Float.round (1. /. submit_share))) in
  let slot = ref 0 in
  for k = 0 to count - 1 do
    if k mod block = 0 then slot := Random.State.int rs block;
    if k mod block = !slot then line "submit" (submit_body (fresh_spec ()))
    else line "hot" (hot_body (hot_cell ()))
  done

(* --- shared ledger output ----------------------------------------------------- *)

let gc_metrics (g0 : Gc.stat) =
  let g1 = Gc.quick_stat () in
  [
    ("gc.minor_mwords", (g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6);
    ( "gc.major_collections",
      float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) );
    ( "gc.top_heap_mb",
      float_of_int (g1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576. );
  ]

(* The ledger closes when every span's self time adds up to the root's
   duration: nothing ran outside a span, no span overlapped another. *)
let closes ~wall_s =
  abs_float (Ledger.total_self () -. wall_s) <= 1e-6 *. Float.max 1. wall_s

let report ~ok ~checked ~failures ~metrics extra =
  print_endline
    (J.to_string
       (J.Obj
          ([
             ("ok", J.Bool ok);
             ("checked", J.Int checked);
             ("failures", J.List (List.map (fun m -> J.Str m) failures));
             ( "metrics",
               J.Obj (List.map (fun (k, v) -> (k, J.Float v)) metrics) );
           ]
          @ extra)));
  if not ok then exit 1

let write_chrome = function None -> () | Some p -> Ledger.write_chrome p

(* --- sweep-walk -------------------------------------------------------------- *)

(* Experiments keys a cell as [bench ^ "#" ^ opts_key]; opts_key is
   rebuilt here and every parsed key must print back to itself, so a
   change to the harness's key format fails loudly instead of walking
   different cells. *)
let opts_key (o : Rc_harness.Pipeline.options) =
  Fmt.str "%s/rc=%b/%d.%d.%d.%d/%a/c=%b/i=%d/m=%d/l=%d.%d/x=%b"
    (Walk.level_key o.opt) o.rc o.core_int o.core_float o.total_int
    o.total_float Rc_core.Model.pp o.model o.combine o.issue o.mem_channels
    o.lat.Rc_isa.Latency.load o.lat.Rc_isa.Latency.connect o.extra_stage

let parse_key key =
  let fail () = die "cannot parse cell key %S" key in
  let name, rest =
    match String.index_opt key '#' with
    | Some i ->
        (String.sub key 0 i, String.sub key (i + 1) (String.length key - i - 1))
    | None -> fail ()
  in
  let sc s fmt k = try Scanf.sscanf s fmt k with _ -> fail () in
  match String.split_on_char '/' rest with
  | [ lvl; rc; files; model; c; i; m; l; x ] ->
      let opt =
        if lvl = "classical" then Rc_opt.Pass.Classical
        else sc lvl "ilp%d%!" (fun f -> Rc_opt.Pass.Ilp f)
      in
      let model =
        match Rc_core.Model.of_string model with Some m -> m | None -> fail ()
      in
      let opts =
        sc files "%d.%d.%d.%d%!"
          (fun core_int core_float total_int total_float ->
            sc l "l=%d.%d%!" (fun load connect ->
                Rc_harness.Pipeline.options ~opt
                  ~rc:(sc rc "rc=%B%!" Fun.id)
                  ~core_int ~core_float ~total_int ~total_float ~model
                  ~combine:(sc c "c=%B%!" Fun.id)
                  ~issue:(sc i "i=%d%!" Fun.id)
                  ~mem_channels:(sc m "m=%d%!" Fun.id)
                  ~lat:(Rc_isa.Latency.v ~load ~connect ())
                  ~extra_stage:(sc x "x=%B%!" Fun.id)
                  ()))
      in
      if name ^ "#" ^ opts_key opts <> key then fail ();
      let bench =
        try Rc_workloads.Registry.find name with Invalid_argument _ -> fail ()
      in
      (bench, opts)
  | _ -> fail ()

let sweep_walk ~cells_file ~store_dir ~chrome =
  let doc = parse_json cells_file (read_file cells_file) in
  let scale = int (member "scale" doc) in
  let cells =
    match member "cells" doc with
    | J.List l ->
        List.map (fun c -> (str (member "key" c), member "machine" c)) l
    | _ -> die "%s: \"cells\" is not a list" cells_file
  in
  let parsed = List.map (fun (k, m) -> (k, parse_key k, m)) cells in
  let store = Rc_serve.Store.open_store ~dir:store_dir () in
  let w = Walk.create ~store ~scale () in
  Ledger.reset ~events:(chrome <> None);
  let g0 = Gc.quick_stat () in
  let results, wall_s =
    Ledger.timed "walk" (fun () ->
        (* compile every cell, then time each trace group once *)
        let compiled =
          List.map
            (fun (k, (b, opts), _) ->
              (k, Ledger.span "cell" (fun () -> Walk.compile w b opts)))
            parsed
        in
        let groups = Hashtbl.create 1024 and order = ref [] in
        let unsafe = ref [] in
        List.iter
          (fun (k, c) ->
            if Rc_machine.Trace_replay.replay_safe (Walk.config c) then begin
              let key = Walk.trace_key c in
              match Hashtbl.find_opt groups key with
              | Some l -> Hashtbl.replace groups key ((k, c) :: l)
              | None ->
                  Hashtbl.replace groups key [ (k, c) ];
                  order := key :: !order
            end
            else unsafe := (k, c) :: !unsafe)
          compiled;
        let timed =
          List.concat_map
            (fun key ->
              let kcs = List.rev (Hashtbl.find groups key) in
              let rs =
                Ledger.span "group" (fun () ->
                    Walk.simulate_group w key (List.map snd kcs))
              in
              List.map2 (fun (k, c) (r, _) -> (k, (c, r))) kcs rs)
            (List.rev !order)
        in
        let executed =
          List.map
            (fun (k, c) ->
              (k, (c, fst (Ledger.span "group" (fun () -> Walk.execute c)))))
            (List.rev !unsafe)
        in
        timed @ executed)
  in
  let results = Hashtbl.of_seq (List.to_seq results) in
  let gc = gc_metrics g0 in
  write_chrome chrome;
  let failures = ref [] in
  let fail fmt = Fmt.kstr (fun m -> failures := m :: !failures) fmt in
  List.iter
    (fun (k, _, harness) ->
      match Hashtbl.find_opt results k with
      | None -> fail "%s: not walked" k
      | Some (c, r) ->
          if not (Walk.verified c r) then
            fail "%s: output differs from the reference interpreter" k;
          let mine = Rc_harness.Experiments.result_json r in
          if J.to_string mine <> J.to_string harness then
            fail "%s: walk result %s differs from the harness's %s" k
              (J.to_string mine) (J.to_string harness))
    parsed;
  if not (closes ~wall_s) then
    fail "ledger does not close: %.6f s of self time in %.6f s"
      (Ledger.total_self ()) wall_s;
  let failures = List.rev !failures in
  report ~ok:(failures = []) ~checked:(List.length parsed) ~failures
    ~metrics:(Walk.layer_metrics w ~wall_s @ gc @ [ ("trace.wall_s", wall_s) ])
    []

(* --- serve-walk -------------------------------------------------------------- *)

(* Pass wall-clock is the one nondeterministic field of a /run body. *)
let rec zero_wall = function
  | J.Obj fields ->
      J.Obj
        (List.map
           (fun (k, v) -> (k, if k = "wall_s" then J.Float 0. else zero_wall v))
           fields)
  | J.List l -> J.List (List.map zero_wall l)
  | j -> j

let normalised body =
  match J.of_string body with
  | Ok j -> Some (J.to_string (zero_wall j))
  | Error _ -> None

(* One /run request, in-process, the way the server answers it: the
   response body and the engine that timed the cell, with the service
   time in seconds. *)
let serve_one w body =
  Ledger.timed "request" (fun () ->
      let rq =
        Ledger.span "admission" (fun () ->
            match J.of_string body with
            | Error m -> Error m
            | Ok j ->
                Result.map_error Rc_check.Spec.error_detail
                  (Rc_serve.Payload.run_request_of_json j))
      in
      match rq with
      | Error m -> Error m
      | Ok rq ->
          let bench =
            match rq.Rc_serve.Payload.rq_kernel with
            | Rc_serve.Payload.K_bench b -> b
            | Rc_serve.Payload.K_spec s -> Rc_check.Spec.bench_of s
            | Rc_serve.Payload.K_id _ ->
                die "kernel ids are not part of the workload"
          in
          let c = Walk.compile w bench rq.Rc_serve.Payload.rq_opts in
          let r, engine_used = Walk.simulate w c in
          if not (Walk.verified c r) then
            Error "output differs from the reference interpreter"
          else
            Ledger.span "render" (fun () ->
                Ok
                  ( J.to_string
                      (Rc_serve.Payload.run_response
                         ~bench:bench.Rc_workloads.Wutil.name
                         ~scale:rq.Rc_serve.Payload.rq_scale ~engine_used c r)
                    ^ "\n",
                    engine_used )))

let median l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

let serve_walk ~exchange ~store_dir ~chrome =
  let entries =
    String.split_on_char '\n' (read_file exchange)
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map (parse_json exchange)
  in
  let entries = List.mapi (fun i e -> (i, e)) entries in
  let warm, measured =
    List.partition (fun (_, e) -> str (member "phase" e) = "warm") entries
  in
  let store = Rc_serve.Store.open_store ~dir:store_dir () in
  let w = Walk.create ~store ~scale:1 () in
  let failures = ref [] and mismatched = ref [] in
  let fail fmt = Fmt.kstr (fun m -> failures := m :: !failures) fmt in
  let check i e answer =
    let mismatch fmt =
      mismatched := i :: !mismatched;
      fail ("request %d (%s): " ^^ fmt) i (str (member "class" e))
    in
    if int (member "status" e) = 200 then
      match answer with
      | Error m -> mismatch "answered 200, in-process: %s" m
      | Ok (expect, _) ->
          let got = normalised (str (member "response" e)) in
          if got = None || got <> normalised expect then
            mismatch "body differs from the in-process response"
  in
  let serve (i, e) = (e, serve_one w (str (member "body" e)), i) in
  List.iter
    (fun ie ->
      let e, (answer, _), i = serve ie in
      check i e answer)
    warm;
  Ledger.reset ~events:(chrome <> None);
  let g0 = Gc.quick_stat () in
  let service = Hashtbl.create 2 and engines = Hashtbl.create 4 in
  let (), wall_s =
    Ledger.timed "walk" (fun () ->
        List.iter
          (fun ie ->
            let e, (answer, dur), i = serve ie in
            let cls = str (member "class" e) in
            (match answer with
            | Ok (_, engine) ->
                let k = (cls, engine) in
                Hashtbl.replace engines k
                  (1 + Option.value ~default:0 (Hashtbl.find_opt engines k))
            | Error _ -> ());
            Hashtbl.replace service cls
              ((dur *. 1e3)
              :: Option.value ~default:[] (Hashtbl.find_opt service cls));
            check i e answer)
          measured)
  in
  let gc = gc_metrics g0 in
  write_chrome chrome;
  if not (closes ~wall_s) then
    fail "ledger does not close: %.6f s of self time in %.6f s"
      (Ledger.total_self ()) wall_s;
  let failures = List.rev !failures in
  let service_ms =
    Hashtbl.fold (fun cls l acc -> (cls, J.Float (median l)) :: acc) service []
    |> List.sort compare
  in
  report ~ok:(failures = []) ~checked:(List.length entries) ~failures
    ~metrics:(Walk.layer_metrics w ~wall_s @ gc @ [ ("trace.wall_s", wall_s) ])
    [
      ("service_p50_ms", J.Obj service_ms);
      ("mismatched", J.List (List.rev_map (fun i -> J.Int i) !mismatched));
      ( "engines",
        J.Obj
          (Hashtbl.fold
             (fun (cls, engine) n acc -> (cls ^ "." ^ engine, J.Int n) :: acc)
             engines []
          |> List.sort compare) );
    ]

(* --- command line ---------------------------------------------------------- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | x :: _ -> die "unexpected argument %S" x
  in
  match args with
  | cmd :: rest -> (
      let o = opts [] rest in
      let get k =
        match List.assoc_opt k o with
        | Some v -> v
        | None -> die "%s needs --%s" cmd k
      in
      let geti k =
        match int_of_string_opt (get k) with
        | Some n -> n
        | None -> die "--%s: not an integer" k
      in
      match cmd with
      | "plan" ->
          plan ~seed:(geti "seed") ~hot:(geti "hot") ~count:(geti "count")
            ~submit_share:
              (match float_of_string_opt (get "submit-share") with
              | Some f when f >= 0. && f <= 1. -> f
              | _ -> die "--submit-share must be a number in [0, 1]")
      | "sweep-walk" ->
          sweep_walk ~cells_file:(get "cells") ~store_dir:(get "store")
            ~chrome:(List.assoc_opt "chrome" o)
      | "serve-walk" ->
          serve_walk ~exchange:(get "exchange") ~store_dir:(get "store")
            ~chrome:(List.assoc_opt "chrome" o)
      | "calibrate" -> Calib.serve ()
      | _ -> die "unknown subcommand %S" cmd)
  | [] ->
      die "usage: pb (plan | sweep-walk | serve-walk | calibrate) --key value ..."
