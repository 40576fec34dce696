(* The layer walk: one cell or request through the layer functions in
   the harness's order, each call wrapped in a {!Ledger} span.

   Work is shared at the keys the harness uses (Experiments and
   Pipeline): one preparation per bench x optimisation level, one
   allocation per [Pipeline.alloc_key], one back half per cell, and one
   trace per [Image.fingerprint ^ "#" ^ Experiments.semantic_key].  The
   pass records are rebuilt here exactly as [Pipeline] records them, so
   a compiled cell is interchangeable with the harness's own and the
   results can be compared field by field. *)

open Rc_harness
module TR = Rc_machine.Trace_replay

type t = {
  scale : int;
  prepared : (string, Pipeline.prepared) Hashtbl.t;
  allocs : (string, Pipeline.allocated) Hashtbl.t;
  traces : (string, Rc_machine.Dtrace.t) Hashtbl.t;
  store : Rc_serve.Store.t option;
  memo : TR.memo_stats;
}

let create ?store ~scale () =
  {
    scale;
    prepared = Hashtbl.create 64;
    allocs = Hashtbl.create 256;
    traces = Hashtbl.create 1024;
    store;
    memo = TR.memo_stats ();
  }

let level_key = function
  | Rc_opt.Pass.Classical -> "classical"
  | Rc_opt.Pass.Ilp f -> "ilp" ^ string_of_int f

let metric ?(spills = 0) ?(connects = 0) name ~size_in ~size_out dur =
  {
    Pipeline.p_name = name;
    p_start_s = Unix.gettimeofday () -. dur;
    p_wall_s = dur;
    p_size_in = size_in;
    p_size_out = size_out;
    p_spills = spills;
    p_connects = connects;
  }

let find_or_add tbl key f =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = f () in
      Hashtbl.replace tbl key v;
      v

(* Pipeline.prepare, layer by layer. *)
let prepare w (b : Rc_workloads.Wutil.bench) level =
  find_or_add w.prepared
    (b.Rc_workloads.Wutil.name ^ "#" ^ level_key level)
    (fun () ->
      let prog = b.Rc_workloads.Wutil.build w.scale in
      let ops () = Rc_ir.Prog.op_count prog in
      let size0 = ops () in
      let (), d_opt = Ledger.timed "opt" (fun () -> Rc_opt.Pass.apply level prog) in
      let size1 = ops () in
      let (), d_leg =
        Ledger.timed "legalize" (fun () -> Rc_codegen.Legalize.run prog)
      in
      let size2 = ops () in
      let outcome, d_prof =
        Ledger.timed "profile" (fun () -> Rc_interp.Interp.run prog)
      in
      Ledger.count "opt.calls" 1.;
      Ledger.count "opt.ops_out" (float_of_int size2);
      let opt_name =
        match level with
        | Rc_opt.Pass.Classical -> "classical-opt"
        | Rc_opt.Pass.Ilp _ -> "ilp-opt"
      in
      {
        Pipeline.prog;
        outcome;
        prep_passes =
          [
            metric opt_name ~size_in:size0 ~size_out:size1 d_opt;
            metric "legalize" ~size_in:size1 ~size_out:size2 d_leg;
            metric "profile" ~size_in:size2 ~size_out:size2 d_prof;
          ];
      })

(* Pipeline.allocate, layer by layer, shared per Pipeline.alloc_key. *)
let allocate w b (opts : Pipeline.options) =
  let level = opts.Pipeline.opt in
  find_or_add w.allocs
    (Fmt.str "%s#%s#%s" b.Rc_workloads.Wutil.name (level_key level)
       (Pipeline.alloc_key opts))
    (fun () ->
      let p = prepare w b level in
      let prog = p.Pipeline.prog and expected = p.Pipeline.outcome in
      let profile = expected.Rc_interp.Interp.profile in
      let ifile, ffile = Pipeline.files opts in
      let ir_size = Rc_ir.Prog.op_count prog in
      let alloc, d_ra =
        Ledger.timed "regalloc" (fun () ->
            Rc_regalloc.Alloc.run
              ~aggressive_extended:(opts.Pipeline.lat.Rc_isa.Latency.connect = 0)
              ~ifile ~ffile prog profile)
      in
      let spills = Rc_regalloc.Alloc.total_spills alloc in
      let mcode, d_low =
        Ledger.timed "lower" (fun () -> Rc_codegen.Lower.run prog alloc profile)
      in
      Ledger.count "regalloc.spills" (float_of_int spills);
      {
        Pipeline.a_opts = opts;
        a_mcode = mcode;
        a_spills = spills;
        a_expected = expected;
        a_passes =
          p.Pipeline.prep_passes
          @ [
              metric "regalloc" ~size_in:ir_size ~size_out:ir_size ~spills d_ra;
              metric "lower" ~size_in:ir_size
                ~size_out:(Rc_isa.Mcode.insn_count mcode)
                d_low;
            ];
      })

(* Pipeline.compile_allocated: the back half, on a copy of the
   allocation's template. *)
let compile w b (opts : Pipeline.options) =
  let a = allocate w b opts in
  let ifile, ffile = Pipeline.files opts in
  let mcode = Rc_isa.Mcode.copy a.Pipeline.a_mcode in
  let mc_size = Rc_isa.Mcode.insn_count mcode in
  let (), d_sched =
    Ledger.timed "schedule" (fun () ->
        Rc_sched.List_sched.run
          (Rc_sched.List_sched.config ~width:opts.Pipeline.issue
             ~mem_channels:opts.Pipeline.mem_channels ~lat:opts.Pipeline.lat ())
          mcode)
  in
  let sched_size = Rc_isa.Mcode.insn_count mcode in
  let connects, d_rcl =
    Ledger.timed "rc_lower" (fun () ->
        let n =
          if opts.Pipeline.rc then
            Rc_codegen.Rc_lower.run
              (Rc_codegen.Rc_lower.config ~model:opts.Pipeline.model
                 ~combine:opts.Pipeline.combine ~ifile ~ffile ())
              mcode
          else 0
        in
        if not (Rc_codegen.Rc_lower.check_arch_form ~ifile ~ffile mcode) then
          invalid_arg "walk: generated code is not in architectural form";
        n)
  in
  let rcl_size = Rc_isa.Mcode.insn_count mcode in
  let image, d_asm =
    Ledger.timed "assemble" (fun () -> Rc_isa.Image.assemble mcode)
  in
  Ledger.count "backhalf.calls" 1.;
  Ledger.count "rc_lower.connects" (float_of_int connects);
  {
    Pipeline.opts;
    mcode;
    image;
    breakdown = Rc_isa.Mcode.size_breakdown mcode;
    spills = a.Pipeline.a_spills;
    connects_inserted = connects;
    expected = a.Pipeline.a_expected;
    passes =
      a.Pipeline.a_passes
      @ [
          metric "schedule" ~size_in:mc_size ~size_out:sched_size d_sched;
          metric "rc-lower" ~size_in:sched_size ~size_out:rcl_size ~connects
            d_rcl;
          metric "assemble" ~size_in:rcl_size
            ~size_out:(Array.length image.Rc_isa.Image.code)
            d_asm;
        ];
  }

(** The trace-cache key of a compiled cell, as the harness builds it. *)
let trace_key (c : Pipeline.compiled) =
  let fp =
    Ledger.span "fingerprint" (fun () ->
        Rc_isa.Image.fingerprint c.Pipeline.image)
  in
  Ledger.count "fingerprint.calls" 1.;
  fp ^ "#" ^ Experiments.semantic_key c.Pipeline.opts

let config (c : Pipeline.compiled) = Pipeline.machine_config c.Pipeline.opts

let executed (r : Rc_machine.Machine.result) =
  Ledger.count "execute.calls" 1.;
  Ledger.count "execute.dyn_insns" (float_of_int r.Rc_machine.Machine.issued);
  (r, "execute")

let execute c =
  executed
    (Ledger.span "execute" (fun () ->
         Rc_machine.Machine.run (config c) c.Pipeline.image))

let replay w tr cs =
  Ledger.count "replay.cells" (float_of_int (List.length cs));
  let rs =
    match cs with
    | [] -> []
    | [ c ] ->
        [ Ledger.span "replay" (fun () ->
              TR.replay ~memo:true ~stats:w.memo (config c) c.Pipeline.image tr) ]
    | c0 :: _ ->
        Array.to_list
          (Ledger.span "replay" (fun () ->
               TR.replay_batch ~memo:true ~stats:w.memo
                 (Array.of_list (List.map config cs))
                 c0.Pipeline.image tr))
  in
  List.map (fun r -> (r, "replay")) rs

let probe w key =
  match w.store with
  | None -> None
  | Some st ->
      Ledger.count "store.probe_calls" 1.;
      let tr = Ledger.span "store.probe" (fun () -> Rc_serve.Store.probe st key) in
      if tr <> None then Ledger.count "store.hits" 1.;
      tr

let publish w key tr =
  match w.store with
  | None -> ()
  | Some st ->
      Ledger.count "store.publish_calls" 1.;
      Ledger.span "store.publish" (fun () -> Rc_serve.Store.publish st key tr)

(** Time a group of compiled cells that share one trace key, in order,
    under the harness's replay-engine policy: replay a trace held in
    memory or in the store, otherwise record the first cell (publishing
    its trace) and replay the rest.  Returns each cell's result and the
    engine that produced it. *)
let simulate_group w key cs =
  Ledger.count "replay.safe_cells" (float_of_int (List.length cs));
  let cached =
    match Hashtbl.find_opt w.traces key with
    | Some tr -> Some tr
    | None -> (
        match probe w key with
        | Some tr ->
            Hashtbl.replace w.traces key tr;
            Some tr
        | None -> None)
  in
  match (cached, cs) with
  | Some tr, _ -> replay w tr cs
  | None, [] -> []
  | None, c0 :: rest -> (
      let r0, tro =
        Ledger.span "execute" (fun () ->
            TR.record (config c0) c0.Pipeline.image)
      in
      let first = executed r0 in
      match tro with
      | None -> first :: List.map execute rest
      | Some tr ->
          Ledger.count "execute.recorded" 1.;
          Hashtbl.replace w.traces key tr;
          publish w key tr;
          first :: replay w tr rest)

(** Time cells that are not grouped: replay-unsafe configurations
    execute, the rest go through {!simulate_group} one by one. *)
let simulate w c =
  if TR.replay_safe (config c) then
    match simulate_group w (trace_key c) [ c ] with
    | [ x ] -> x
    | _ -> assert false
  else execute c

let verified (c : Pipeline.compiled) (r : Rc_machine.Machine.result) =
  r.Rc_machine.Machine.output = c.Pipeline.expected.Rc_interp.Interp.output

(** The per-layer metrics of everything recorded since the last
    {!Ledger.reset}, for a walk of [wall_s] seconds.  [harness.other_s]
    is what the layers' self times leave of [wall_s]. *)
let layer_metrics w ~wall_s =
  let s = Ledger.get_self and n = Ledger.get_count in
  let ratio a b = if b > 0. then a /. b else 0. in
  let m = w.memo in
  let seg = float_of_int (m.TR.m_hits + m.TR.m_misses + m.TR.m_fallbacks) in
  let layers =
    [
      ("opt.self_s", s "opt" +. s "legalize");
      ("profile.self_s", s "profile");
      ("regalloc.self_s", s "regalloc");
      ("lower.self_s", s "lower");
      ("schedule.self_s", s "schedule");
      ("rc_lower.self_s", s "rc_lower");
      ("assemble.self_s", s "assemble");
      ("fingerprint.self_s", s "fingerprint");
      ("execute.self_s", s "execute");
      ("replay.self_s", s "replay");
      ("store.probe_s", s "store.probe");
      ("store.publish_s", s "store.publish");
      ("admission.self_s", s "admission");
      ("render.self_s", s "render");
    ]
  in
  let layer_sum = List.fold_left (fun acc (_, v) -> acc +. v) 0. layers in
  let store_bytes =
    match w.store with
    | Some st -> float_of_int (Rc_serve.Store.stats st).Rc_serve.Store.bytes
    | None -> 0.
  in
  layers
  @ [
      ("harness.other_s", wall_s -. layer_sum);
      ("opt.calls", n "opt.calls");
      ("opt.ops_out", n "opt.ops_out");
      ("profile.calls", float_of_int (Ledger.get_calls "profile"));
      ("regalloc.calls", float_of_int (Ledger.get_calls "regalloc"));
      ("regalloc.spills", n "regalloc.spills");
      ("rc_lower.connects", n "rc_lower.connects");
      ("backhalf.calls", n "backhalf.calls");
      ("fingerprint.calls", n "fingerprint.calls");
      ("execute.calls", n "execute.calls");
      ("execute.recorded", n "execute.recorded");
      ("execute.dyn_insns", n "execute.dyn_insns");
      ( "execute.minsn_per_s",
        ratio (n "execute.dyn_insns" /. 1e6) (s "execute") );
      ("replay.calls", float_of_int (Ledger.get_calls "replay"));
      ( "replay.cells_per_decode",
        ratio (n "replay.cells") (float_of_int (Ledger.get_calls "replay")) );
      ("replay.memo_hit_ratio", ratio (float_of_int m.TR.m_hits) seg);
      ("replay.fallbacks", float_of_int m.TR.m_fallbacks);
      ("trace_cache.hit_ratio", ratio (n "replay.cells") (n "replay.safe_cells"));
      ("store.probe_calls", n "store.probe_calls");
      ("store.hit_ratio", ratio (n "store.hits") (n "store.probe_calls"));
      ("store.publish_calls", n "store.publish_calls");
      ("store.bytes", store_bytes);
      ("admission.calls", float_of_int (Ledger.get_calls "admission"));
    ]
