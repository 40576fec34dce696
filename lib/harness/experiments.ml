(** Regeneration of every table and figure of the paper's evaluation
    (section 5), over the twelve benchmark kernels.

    Speedups are computed exactly as in the paper: the base configuration
    is a single-issue processor with an unlimited number of registers
    using conventional compiler scalar optimisations (section 5.3).
    Integer benchmarks vary the integer register file with a fixed
    floating-point file; floating-point benchmarks vary the
    floating-point file with a fixed 64-entry integer file (section
    5.2).  The paper counts FP registers for double-precision variables
    (two registers per double); our simulator stores one double per
    register, so FP sweeps are labelled with the paper's register counts
    while the simulator gets half as many (DESIGN.md section 10). *)

open Rc_workloads

(* --- memoising context ------------------------------------------------- *)

(** Everything the harness keeps about one simulated cell: the machine
    result (with its slot-level stall attribution) plus the compile-side
    telemetry. *)
type cell = {
  c_result : Rc_machine.Machine.result;
  c_breakdown : Rc_isa.Mcode.size_breakdown;
  c_spills : int;
  c_passes : Pipeline.pass_metric list;
}

(** How cells are timed.  [Execute] always runs the execution-driven
    simulator.  [Replay] records a dynamic trace on the first sighting
    of each compiled image and re-times every later sighting by trace
    replay. *)
type engine = Execute | Replay

let engine_name = function Execute -> "execute" | Replay -> "replay"

let engine_of_string = function
  | "execute" -> Some Execute
  | "replay" -> Some Replay
  | _ -> None

(* The trace-cache counters: one row each, naming the JSON key, the
   Prometheus family, its kind and its help text (see the .mli for
   what each counts).  The table order is the JSON key order and the
   registration order. *)
module Trace_counter = struct
  type kind = Counter | Gauge
  type t = { key : string; prom : string; kind : kind; help : string }

  let v key prom kind help = { key; prom; kind; help }

  let hits =
    v "hits" "rcc_trace_cache_hits_total" Counter
      "Cells timed by replaying a cached trace"

  let misses =
    v "misses" "rcc_trace_cache_misses_total" Counter
      "Replay-eligible cells that executed"

  let recorded =
    v "recorded" "rcc_trace_cache_recorded_total" Counter
      "Traces recorded into the cache"

  let unsafe =
    v "unsafe" "rcc_trace_cache_unsafe_total" Counter
      "Cells not replay-safe, forced execution"

  let bytes =
    v "bytes" "rcc_trace_cache_bytes" Gauge "Resident compacted trace bytes"

  let store_hits =
    v "store_hits" "rcc_trace_cache_store_hits_total" Counter
      "Trace-cache hits whose trace came from the on-disk store"

  let seg_hits =
    v "seg_hits" "rcc_timing_memo_hits_total" Counter
      "Superblock visits served by the replay timing memo"

  let seg_misses =
    v "seg_misses" "rcc_timing_memo_misses_total" Counter
      "Superblock visits replayed per-entry and recorded into the memo"

  let seg_fallbacks =
    v "seg_fallbacks" "rcc_timing_memo_fallbacks_total" Counter
      "Superblock visits ineligible for the memo (halt, fuel, overflow)"

  let memo_bytes =
    v "memo_bytes" "rcc_timing_memo_bytes_total" Counter
      "Cumulative approximate memo-table bytes"

  let all =
    [
      hits; misses; recorded; unsafe; bytes; store_hits; seg_hits;
      seg_misses; seg_fallbacks; memo_bytes;
    ]
end

(** Optional second cache level behind the in-memory trace table: an
    on-disk store (lib/serve/store.ml, or anything else) exposed as two
    closures so the harness stays ignorant of file formats.  [probe] is
    consulted on an in-memory miss {e before} deciding to execute or
    record; [publish] is offered every freshly recorded trace.  Both
    run {e outside} [traces_mu] — they do disk IO. *)
type store_hooks = {
  probe : string -> Rc_machine.Dtrace.t option;
  publish : string -> Rc_machine.Dtrace.t -> unit;
}

type ctx = {
  scale : int;
  engine : engine;
  pool : Rc_par.Pool.t;
  (* Domain-safe single-flight memo tables: any worker may ask for any
     cell, but each program is compiled and each configuration simulated
     exactly once. *)
  prepared : (string * string, Pipeline.prepared) Rc_par.Memo.t;
  allocs : (string, Pipeline.allocated) Rc_par.Memo.t;
  runs : (string, cell) Rc_par.Memo.t;
  base_cycles : (string, float) Rc_par.Memo.t;
  (* The trace cache is mutex-protected but deliberately not
     single-flight: two workers racing on one trace key at worst both
     record, and replayed results are exact, so table contents never
     depend on the race (only the hit/miss split does). *)
  traces : (string, Rc_machine.Dtrace.t) Hashtbl.t;
  traces_mu : Mutex.t;
  mutable store : store_hooks option;
  timing_memo : bool;
      (** superblock timing memo inside every replay (default true);
          the [--no-timing-memo] escape hatch clears it *)
  metrics : Rc_obs.Metrics.t;  (** every {!Trace_counter}, nothing else *)
}

let trace_cache_registry () =
  let reg = Rc_obs.Metrics.create () in
  List.iter
    (fun { Trace_counter.prom; kind; help; _ } ->
      match kind with
      | Trace_counter.Counter -> Rc_obs.Metrics.set_counter reg ~help prom 0.0
      | Trace_counter.Gauge -> Rc_obs.Metrics.set reg ~help prom 0.0)
    Trace_counter.all;
  reg

let create ?(scale = 1) ?(jobs = 1) ?(engine = Replay) ?(timing_memo = true)
    () =
  {
    scale;
    engine;
    timing_memo;
    pool = Rc_par.Pool.create ~jobs;
    prepared = Rc_par.Memo.create 32;
    allocs = Rc_par.Memo.create 128;
    runs = Rc_par.Memo.create 256;
    base_cycles = Rc_par.Memo.create 16;
    traces = Hashtbl.create 256;
    traces_mu = Mutex.create ();
    store = None;
    metrics = trace_cache_registry ();
  }

let jobs ctx = Rc_par.Pool.jobs ctx.pool
let engine ctx = ctx.engine
let scale ctx = ctx.scale
let pool ctx = ctx.pool

let metrics ctx = ctx.metrics

let bump ctx { Trace_counter.prom; kind; _ } n =
  let n = float_of_int n in
  match kind with
  | Trace_counter.Counter -> Rc_obs.Metrics.inc ctx.metrics prom n
  | Trace_counter.Gauge -> Rc_obs.Metrics.add ctx.metrics prom n

let count ctx { Trace_counter.prom; _ } =
  match Rc_obs.Metrics.value ctx.metrics prom with
  | Some v -> int_of_float v
  | None -> 0

let trace_cache_json ctx =
  Rc_obs.Json.Obj
    (List.map
       (fun c -> (c.Trace_counter.key, Rc_obs.Json.Int (count ctx c)))
       Trace_counter.all)

let shutdown ctx = Rc_par.Pool.shutdown ctx.pool
let set_store ctx ~probe ~publish = ctx.store <- Some { probe; publish }

(* Probe the attached store for [key] — called on an in-memory miss,
   outside [traces_mu] (it reads a file).  A hit is installed in the
   memory table (unless a racing worker already recorded the key) so
   later sightings hit memory, and counts toward resident bytes like
   any other cached trace. *)
let store_probe ctx key =
  match ctx.store with
  | None -> None
  | Some s -> (
      match s.probe key with
      | None -> None
      | Some tr ->
          bump ctx Trace_counter.store_hits 1;
          Mutex.protect ctx.traces_mu (fun () ->
              if not (Hashtbl.mem ctx.traces key) then begin
                Hashtbl.replace ctx.traces key tr;
                bump ctx Trace_counter.bytes (Rc_machine.Dtrace.bytes tr)
              end);
          Some tr)

let store_publish ctx key tr =
  match ctx.store with None -> () | Some s -> s.publish key tr

let level_key = function
  | Rc_opt.Pass.Classical -> "classical"
  | Rc_opt.Pass.Ilp f -> "ilp" ^ string_of_int f

let prepared ctx (b : Wutil.bench) level =
  let key = (b.Wutil.name, level_key level) in
  Rc_par.Memo.find_or_compute ctx.prepared key (fun () ->
      Pipeline.prepare ~opt:level (b.Wutil.build ctx.scale))

let opts_key (o : Pipeline.options) =
  Fmt.str "%s/rc=%b/%d.%d.%d.%d/%a/c=%b/i=%d/m=%d/l=%d.%d/x=%b"
    (level_key o.Pipeline.opt) o.Pipeline.rc o.Pipeline.core_int
    o.Pipeline.core_float o.Pipeline.total_int o.Pipeline.total_float
    Rc_core.Model.pp o.Pipeline.model o.Pipeline.combine o.Pipeline.issue
    o.Pipeline.mem_channels o.Pipeline.lat.Rc_isa.Latency.load
    o.Pipeline.lat.Rc_isa.Latency.connect o.Pipeline.extra_stage

(** Register allocation and lowering shared (memoised) across every
    configuration with the same {!Pipeline.alloc_key} — the timing axes
    of the figure sweeps (issue rate, memory channels, load latency,
    model, combine, extra stage) re-use one allocation. *)
let allocated ctx (b : Wutil.bench) (opts : Pipeline.options) =
  let key =
    Fmt.str "%s#%s#%s" b.Wutil.name
      (level_key opts.Pipeline.opt)
      (Pipeline.alloc_key opts)
  in
  Rc_par.Memo.find_or_compute ctx.allocs key (fun () ->
      Pipeline.allocate opts (prepared ctx b opts.Pipeline.opt))

(* The knobs that determine the dynamic instruction stream beyond the
   image bytes: register resolution (reset model, file shapes).  Part
   of the trace-cache key; everything else in [opts] is free to vary
   between recording and replay. *)
let semantic_key (o : Pipeline.options) =
  Fmt.str "%a/%b/%d.%d.%d.%d" Rc_core.Model.pp o.Pipeline.model o.Pipeline.rc
    o.Pipeline.core_int o.Pipeline.core_float o.Pipeline.total_int
    o.Pipeline.total_float

(* Every replay the harness runs goes through this wrapper, so the
   timing-memo switch and counters apply uniformly. *)
let replay_cell ctx c tr =
  let ms = Rc_machine.Trace_replay.memo_stats () in
  let r = Pipeline.simulate_replayed ~memo:ctx.timing_memo ~stats:ms c tr in
  let open Rc_machine.Trace_replay in
  bump ctx Trace_counter.seg_hits ms.m_hits;
  bump ctx Trace_counter.seg_misses ms.m_misses;
  bump ctx Trace_counter.seg_fallbacks ms.m_fallbacks;
  bump ctx Trace_counter.memo_bytes ms.m_bytes;
  r

(** The trace-cache key of a compiled cell: the image fingerprint plus
    the semantic knobs the recording depends on. *)
let trace_key (c : Pipeline.compiled) =
  Rc_isa.Image.fingerprint c.Pipeline.image ^ "#" ^ semantic_key c.Pipeline.opts

(** Time one compiled cell under the context's engine.  [Replay]
    replays a trace held in memory or, on an in-memory miss, in the
    attached store; when both miss it records the cell (the first
    sighting) and publishes the trace, so every later sighting
    replays.  Also reports which engine produced the result —
    ["execute"] or ["replay"] — for callers (the server's [/run]
    endpoint) that surface it. *)
let simulate_engine ctx (c : Pipeline.compiled) =
  let locked f = Mutex.protect ctx.traces_mu f in
  if ctx.engine = Execute then begin
    bump ctx Trace_counter.misses 1;
    (Pipeline.simulate c, "execute")
  end
  else if
    not
      (Rc_machine.Trace_replay.replay_safe
         (Pipeline.machine_config c.Pipeline.opts))
  then begin
    bump ctx Trace_counter.unsafe 1;
    (Pipeline.simulate c, "execute")
  end
  else
    let key = trace_key c in
    let cached =
      match locked (fun () -> Hashtbl.find_opt ctx.traces key) with
      | Some tr -> Some tr
      | None -> store_probe ctx key
    in
    match cached with
    | Some tr ->
        bump ctx Trace_counter.hits 1;
        (replay_cell ctx c tr, "replay")
    | None ->
        bump ctx Trace_counter.misses 1;
        let r, tr = Pipeline.simulate_recorded c in
        (* [None]: unreplayable after all; later sightings record again *)
        Option.iter
          (fun tr ->
            locked (fun () ->
                if not (Hashtbl.mem ctx.traces key) then begin
                  (* else a racing worker won *)
                  Hashtbl.replace ctx.traces key tr;
                  bump ctx Trace_counter.recorded 1;
                  bump ctx Trace_counter.bytes (Rc_machine.Dtrace.bytes tr)
                end);
            store_publish ctx key tr)
          tr;
        (r, "execute")

(** The compile side of {!run_cell}: prepare/allocate through the
    context's memo tables (warm across calls), then the cheap
    timing-dependent back half on a fresh template copy. *)
let compile_cell ctx (b : Wutil.bench) (opts : Pipeline.options) =
  Pipeline.compile_allocated opts (allocated ctx b opts)

(** The simulate side of {!run_cell}, unmemoised: every call goes to
    the engine, so a repeated configuration is re-timed through the
    trace cache (and reports a cache hit) instead of being served from
    the cell memo.  This is the server's [/run] path. *)
let simulate_cell ctx (c : Pipeline.compiled) = simulate_engine ctx c

let run_key (b : Wutil.bench) opts = b.Wutil.name ^ "#" ^ opts_key opts

(** Compile and simulate one benchmark under one configuration
    (memoised), returning the full telemetry cell. *)
let run_cell ctx (b : Wutil.bench) (opts : Pipeline.options) =
  let key = run_key b opts in
  Rc_par.Memo.find_or_compute ctx.runs key (fun () ->
      let c = compile_cell ctx b opts in
      let r, _engine_used = simulate_engine ctx c in
      {
        c_result = r;
        c_breakdown = c.Pipeline.breakdown;
        c_spills = c.Pipeline.spills;
        c_passes = c.Pipeline.passes;
      })

(** Compile and simulate one benchmark under one configuration
    (memoised). *)
let run ctx b opts =
  let c = run_cell ctx b opts in
  (c.c_result, c.c_breakdown, c.c_spills)

let unlimited = 2048

(** The paper's base configuration (section 5.3). *)
let base_opts () =
  Pipeline.options ~opt:Rc_opt.Pass.Classical ~issue:1 ~mem_channels:2
    ~core_int:unlimited ~core_float:unlimited ()

let base_cycles ctx (b : Wutil.bench) =
  Rc_par.Memo.find_or_compute ctx.base_cycles b.Wutil.name (fun () ->
      let r, _, _ = run ctx b (base_opts ()) in
      float_of_int r.Rc_machine.Machine.cycles)

let speedup ctx b opts =
  let r, _, _ = run ctx b opts in
  base_cycles ctx b /. float_of_int r.Rc_machine.Machine.cycles

(* --- register-file parameterisation ----------------------------------- *)

(** FP sweeps use the paper's double-counted labels. *)
let fp_actual label = max 6 (label / 2)

let fixed_float_for_int_benches = 32 (* 64 paper registers *)
let fixed_int_for_fp_benches = 64
let rc_total_int = 256
let rc_total_float = 128 (* 256 paper registers *)

(** Options for one benchmark given the varied core size (paper label)
    and whether RC support is present. *)
let reg_opts (b : Wutil.bench) ~label ~rc ?opt ?(issue = 4) ?mem_channels
    ?(lat = Rc_isa.Latency.default) ?(model = Rc_core.Model.default)
    ?(combine = true) ?(extra_stage = false) () =
  match b.Wutil.kind with
  | Wutil.Int_bench ->
      Pipeline.options ~rc ?opt ~issue ?mem_channels ~lat ~model ~combine
        ~extra_stage ~core_int:label ~core_float:fixed_float_for_int_benches
        ~total_int:rc_total_int ~total_float:fixed_float_for_int_benches ()
  | Wutil.Float_bench ->
      Pipeline.options ~rc ?opt ~issue ?mem_channels ~lat ~model ~combine
        ~extra_stage ~core_int:fixed_int_for_fp_benches
        ~core_float:(fp_actual label) ~total_int:fixed_int_for_fp_benches
        ~total_float:rc_total_float ()

let unlimited_opts ?(issue = 4) ?mem_channels ?(lat = Rc_isa.Latency.default)
    () =
  Pipeline.options ~issue ?mem_channels ~lat ~core_int:unlimited
    ~core_float:unlimited ()

(** The per-benchmark small-core size used in Figures 10-13: 16 integer
    registers for integer benchmarks, 32 (paper label) floating-point
    registers for floating-point benchmarks. *)
let small_label (b : Wutil.bench) =
  match b.Wutil.kind with Wutil.Int_bench -> 16 | Wutil.Float_bench -> 32

(* --- parallel fan-out --------------------------------------------------- *)

(** A single-speedup cell. *)
let sp_cell ctx b opts () = [ speedup ctx b opts ]

(** Evaluate one table's cell thunks on the context's pool, flattened
    in declaration order and reassembled — so the resulting rows are
    identical for every jobs count and engine (cell values are memoised
    pure computations, and {!Rc_par.Pool.map_cells} collects by
    index). *)
let par_rows ctx (rows : (string * (unit -> float list) list) list) :
    (string * float list) list =
  let chunks =
    Rc_par.Pool.map_cells ctx.pool (fun f -> f ()) (List.concat_map snd rows)
  in
  let rest = ref chunks in
  List.map
    (fun (name, cells) ->
      let vs =
        List.map
          (fun _ ->
            match !rest with
            | chunk :: tl ->
                rest := tl;
                chunk
            | [] -> invalid_arg "Experiments.par_rows: cell count mismatch")
          cells
      in
      (name, List.concat vs))
    rows

(* --- tables ------------------------------------------------------------ *)

type table = {
  id : string;
  title : string;
  columns : string list;
  rows : (string * float list) list;  (** benchmark, one value per column *)
  note : string;
}

let geomean xs =
  match List.filter (fun x -> x > 0.0) xs with
  | [] -> 0.0
  | xs ->
      exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))

let with_geomean t =
  (* One transpose pass instead of [List.nth] per (row, column); the
     per-column values stay in row order so the float reductions in
     [geomean] associate exactly as before. *)
  let cols = List.length t.columns in
  let acc = Array.make cols [] in
  List.iter
    (fun (_, vs) -> List.iteri (fun k v -> acc.(k) <- v :: acc.(k)) vs)
    t.rows;
  let means = List.init cols (fun k -> geomean (List.rev acc.(k))) in
  { t with rows = t.rows @ [ ("geomean", means) ] }

let print_table ppf t =
  Fmt.pf ppf "@.== %s: %s ==@." t.id t.title;
  if t.note <> "" then Fmt.pf ppf "%s@." t.note;
  let w = 10 in
  Fmt.pf ppf "%-12s" "benchmark";
  List.iter (fun c -> Fmt.pf ppf "%*s" w c) t.columns;
  Fmt.pf ppf "@.";
  List.iter
    (fun (name, vs) ->
      Fmt.pf ppf "%-12s" name;
      List.iter (fun v -> Fmt.pf ppf "%*.2f" w v) vs;
      Fmt.pf ppf "@.")
    t.rows

(* --- Table 1 ----------------------------------------------------------- *)

let table1 () =
  let rows2 = Rc_isa.Latency.table1 Rc_isa.Latency.default in
  let rows4 = Rc_isa.Latency.table1 (Rc_isa.Latency.v ~load:4 ()) in
  {
    id = "table1";
    title = "Instruction latencies";
    columns = [ "2cyc-load"; "4cyc-load" ];
    rows =
      List.map2
        (fun (n, l2) (_, l4) -> (n, [ float_of_int l2; float_of_int l4 ]))
        rows2 rows4;
    note = "Deterministic latencies assumed by every simulation (Table 1).";
  }

(* --- Figure 7 ---------------------------------------------------------- *)

let issue_rates = [ 1; 2; 4; 8 ]

let fig7 ctx =
  let columns = List.map (fun i -> Fmt.str "%d-issue" i) issue_rates in
  let rows =
    par_rows ctx
      (List.map
         (fun (b : Wutil.bench) ->
           ( b.Wutil.name,
             List.map
               (fun issue -> sp_cell ctx b (unlimited_opts ~issue ()))
               issue_rates ))
         (Registry.all ()))
  in
  with_geomean
    {
      id = "fig7";
      title = "Speedup with unlimited registers vs issue rate";
      columns;
      rows;
      note =
        "Memory channels: 2 for 1/2/4-issue, 4 for 8-issue; 2-cycle loads.";
    }

(* --- Figure 8 ---------------------------------------------------------- *)

let int_labels = [ 8; 16; 24; 32; 64 ]
let fp_labels = [ 16; 32; 64; 128 ]

let fig8_rows ctx benches labels =
  par_rows ctx
    (List.map
       (fun (b : Wutil.bench) ->
         ( b.Wutil.name,
           List.map
             (fun label ->
               let o_no = reg_opts b ~label ~rc:false () in
               let o_rc = reg_opts b ~label ~rc:true () in
               (fun () -> [ speedup ctx b o_no; speedup ctx b o_rc ]))
             labels
           @ [ sp_cell ctx b (unlimited_opts ()) ] ))
       benches)

let fig8_columns labels =
  List.concat_map (fun l -> [ Fmt.str "no%d" l; Fmt.str "rc%d" l ]) labels
  @ [ "unlim" ]

let fig8_int ctx =
  with_geomean
    {
      id = "fig8-int";
      title = "Speedup vs core integer registers (4-issue, 2-cycle load)";
      columns = fig8_columns int_labels;
      rows = fig8_rows ctx (Registry.integer ()) int_labels;
      note = "noN = without RC, rcN = with RC (256 total); dotted line = unlim.";
    }

let fig8_fp ctx =
  with_geomean
    {
      id = "fig8-fp";
      title = "Speedup vs core FP registers (4-issue, 2-cycle load)";
      columns = fig8_columns fp_labels;
      rows = fig8_rows ctx (Registry.floating ()) fp_labels;
      note =
        "FP register counts use the paper's double-counted labels \
         (simulator holds one double per register).";
    }

(* --- Figure 9 ---------------------------------------------------------- *)

(** Code-size increase after register allocation, in percent; for the
    with-RC model also the part caused by extended-register save/restore
    around calls (the black bars). *)
let size_increase (bk : Rc_isa.Mcode.size_breakdown) =
  let open Rc_isa.Mcode in
  let ideal = float_of_int (bk.normal + bk.save) in
  let extra = float_of_int (bk.spill + bk.xsave + bk.connects) in
  100.0 *. extra /. ideal

let xsave_increase (bk : Rc_isa.Mcode.size_breakdown) =
  let open Rc_isa.Mcode in
  let ideal = float_of_int (bk.normal + bk.save) in
  100.0 *. float_of_int bk.xsave /. ideal

let fig9_rows ctx benches labels =
  par_rows ctx
    (List.map
       (fun (b : Wutil.bench) ->
         ( b.Wutil.name,
           List.map
             (fun label ->
               let o_no = reg_opts b ~label ~rc:false () in
               let o_rc = reg_opts b ~label ~rc:true () in
               (fun () ->
                 let _, bk_no, _ = run ctx b o_no in
                 let _, bk_rc, _ = run ctx b o_rc in
                 [
                   size_increase bk_no;
                   size_increase bk_rc;
                   xsave_increase bk_rc;
                 ]))
             labels ))
       benches)

let fig9_columns labels =
  List.concat_map
    (fun l -> [ Fmt.str "no%d" l; Fmt.str "rc%d" l; Fmt.str "xs%d" l ])
    labels

let fig9_int ctx =
  {
    id = "fig9-int";
    title = "Code size increase %% due to spill/connect code (integer)";
    columns = fig9_columns int_labels;
    rows = fig9_rows ctx (Registry.integer ()) int_labels;
    note =
      "noN = without RC; rcN = with RC (spill+connect+xsave); xsN = \
       extended-register save/restore part of rcN (black bars).";
  }

let fig9_fp ctx =
  {
    id = "fig9-fp";
    title = "Code size increase %% due to spill/connect code (FP)";
    columns = fig9_columns fp_labels;
    rows = fig9_rows ctx (Registry.floating ()) fp_labels;
    note = "";
  }

(* --- per-kernel figures ------------------------------------------------- *)

let kernel_figures ctx (b : Wutil.bench) =
  let labels =
    match b.Wutil.kind with
    | Wutil.Int_bench -> int_labels
    | Wutil.Float_bench -> fp_labels
  in
  [
    {
      id = "kernel-speedup";
      title = Fmt.str "Speedup vs core registers: %s" b.Wutil.name;
      columns = fig8_columns labels;
      rows = fig8_rows ctx [ b ] labels;
      note = "noN = without RC, rcN = with RC; unlim = unlimited registers.";
    };
    {
      id = "kernel-size";
      title = Fmt.str "Code size increase %% over ideal code: %s" b.Wutil.name;
      columns = fig9_columns labels;
      rows = fig9_rows ctx [ b ] labels;
      note =
        "noN = without RC; rcN = with RC (spill+connect+xsave); xsN = \
         extended-register save/restore part of rcN.";
    };
  ]

(* --- Figures 10 and 11 -------------------------------------------------- *)

let fig10_11 ctx ~load ~id =
  let lat = Rc_isa.Latency.v ~load () in
  let columns =
    List.concat_map
      (fun i -> [ Fmt.str "no/%d" i; Fmt.str "rc/%d" i; Fmt.str "un/%d" i ])
      issue_rates
  in
  let rows =
    par_rows ctx
      (List.map
         (fun (b : Wutil.bench) ->
           let label = small_label b in
           ( b.Wutil.name,
             List.map
               (fun issue ->
                 let o_no = reg_opts b ~label ~rc:false ~issue ~lat () in
                 let o_rc = reg_opts b ~label ~rc:true ~issue ~lat () in
                 let o_un = unlimited_opts ~issue ~lat () in
                 (fun () ->
                   [
                     speedup ctx b o_no;
                     speedup ctx b o_rc;
                     speedup ctx b o_un;
                   ]))
               issue_rates ))
         (Registry.all ()))
  in
  with_geomean
    {
      id;
      title =
        Fmt.str
          "Speedup vs issue rate (%d-cycle load, 16 int / 32 fp core regs)"
          load;
      columns;
      rows;
      note = "no = without RC, rc = with RC, un = unlimited registers.";
    }

let fig10 ctx = fig10_11 ctx ~load:2 ~id:"fig10"
let fig11 ctx = fig10_11 ctx ~load:4 ~id:"fig11"

(* --- Figure 12 ---------------------------------------------------------- *)

let fig12 ctx =
  let scenarios =
    [
      ("0cyc", 0, false);
      ("0cyc+st", 0, true);
      ("1cyc", 1, false);
      ("1cyc+st", 1, true);
    ]
  in
  let columns = "noRC" :: List.map (fun (n, _, _) -> n) scenarios in
  let rows =
    par_rows ctx
      (List.map
         (fun (b : Wutil.bench) ->
           let label = small_label b in
           ( b.Wutil.name,
             sp_cell ctx b (reg_opts b ~label ~rc:false ())
             :: List.map
                  (fun (_, connect, extra_stage) ->
                    let lat = Rc_isa.Latency.v ~connect () in
                    sp_cell ctx b
                      (reg_opts b ~label ~rc:true ~lat ~extra_stage ()))
                  scenarios ))
         (Registry.all ()))
  in
  with_geomean
    {
      id = "fig12";
      title =
        "Speedup vs RC implementation scenario (4-issue, 2-cycle load)";
      columns;
      rows;
      note =
        "0cyc/1cyc = connect latency; +st = extra pipeline stage for \
         mapping-table access.";
    }

(* --- Figure 13 ---------------------------------------------------------- *)

let fig13 ctx =
  let columns =
    List.concat_map
      (fun load ->
        List.concat_map
          (fun ch -> [ Fmt.str "no%dc/l%d" ch load; Fmt.str "rc%dc/l%d" ch load ])
          [ 2; 4 ])
      [ 2; 4 ]
  in
  let rows =
    par_rows ctx
      (List.map
         (fun (b : Wutil.bench) ->
           let label = small_label b in
           ( b.Wutil.name,
             List.concat_map
               (fun load ->
                 let lat = Rc_isa.Latency.v ~load () in
                 List.map
                   (fun mem_channels ->
                     let o_no =
                       reg_opts b ~label ~rc:false ~mem_channels ~lat ()
                     in
                     let o_rc =
                       reg_opts b ~label ~rc:true ~mem_channels ~lat ()
                     in
                     (fun () -> [ speedup ctx b o_no; speedup ctx b o_rc ]))
                   [ 2; 4 ])
               [ 2; 4 ] ))
         (Registry.all ()))
  in
  with_geomean
    {
      id = "fig13";
      title = "Speedup vs memory channels (4-issue, 2- and 4-cycle load)";
      columns;
      rows;
      note =
        "noNc = without RC with N channels; rcNc = with RC; compare rc2c \
         against no4c: RC at 2 channels vs more memory ports.";
    }

(* --- ablations ----------------------------------------------------------- *)

let ablation_models ctx =
  let columns =
    List.map (fun m -> Fmt.str "m%d" (Rc_core.Model.number m)) Rc_core.Model.all
  in
  let rows =
    par_rows ctx
      (List.map
         (fun (b : Wutil.bench) ->
           let label = small_label b in
           ( b.Wutil.name,
             List.map
               (fun model ->
                 sp_cell ctx b (reg_opts b ~label ~rc:true ~model ()))
               Rc_core.Model.all ))
         (Registry.all ()))
  in
  with_geomean
    {
      id = "ablation-models";
      title = "Speedup per automatic-reset model (4-issue, small cores, RC)";
      columns;
      rows;
      note =
        "m1 no-reset, m2 write-reset, m3 write-reset-read-update (paper's \
         choice), m4 read/write-reset.";
    }

let ablation_combine ctx =
  let columns = [ "single"; "combined"; "sgl-size"; "cmb-size" ] in
  let rows =
    par_rows ctx
      (List.map
         (fun (b : Wutil.bench) ->
           let label = small_label b in
           let o_single = reg_opts b ~label ~rc:true ~combine:false () in
           let o_comb = reg_opts b ~label ~rc:true ~combine:true () in
           ( b.Wutil.name,
             [
               (fun () ->
                 let _, bk_s, _ = run ctx b o_single in
                 let _, bk_c, _ = run ctx b o_comb in
                 [
                   speedup ctx b o_single;
                   speedup ctx b o_comb;
                   size_increase bk_s;
                   size_increase bk_c;
                 ]);
             ] ))
         (Registry.all ()))
  in
  {
    id = "ablation-combine";
    title = "Single vs multiple-connect instructions (speedup, size%)";
    columns;
    rows;
    note = "Paper footnote 1: experiments use the combined connect forms.";
  }

let ablation_unroll ctx =
  (* The paper's closing prediction: "As new code parallelization methods
     become available, we expect that the RC method will become
     beneficial for architectures with 32 or more registers."  We proxy
     "more aggressive parallelization" with the unroll factor and measure
     at 32 core registers. *)
  let factors = [ 1; 2; 4; 8 ] in
  let columns =
    List.concat_map
      (fun f -> [ Fmt.str "no/u%d" f; Fmt.str "rc/u%d" f ])
      factors
  in
  let rows =
    par_rows ctx
      (List.map
         (fun (b : Wutil.bench) ->
           ( b.Wutil.name,
             List.map
               (fun factor ->
                 let opt = Rc_opt.Pass.Ilp factor in
                 let o_no = reg_opts b ~label:32 ~rc:false ~opt () in
                 let o_rc = reg_opts b ~label:32 ~rc:true ~opt () in
                 (fun () -> [ speedup ctx b o_no; speedup ctx b o_rc ]))
               factors ))
         (Registry.all ()))
  in
  with_geomean
    {
      id = "ablation-unroll";
      title =
        "RC benefit at 32 core registers vs parallelization aggressiveness";
      columns;
      rows;
      note =
        "uN = unroll factor N (4-issue, 2-cycle load).  The paper's \
         conclusion predicts the rc/no gap at 32 registers to widen as \
         compilers parallelize more aggressively.";
    }

(* --- telemetry collection ------------------------------------------------ *)

(** Every cell simulated so far, merged deterministically: the memo
    snapshot is sorted by cell key, so the view is identical for every
    [--jobs] count (each cell is a memoised pure computation; only the
    wall-clock fields vary run to run). *)
let cells ctx =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Rc_par.Memo.bindings ctx.runs)

let pool_stats ctx = Rc_par.Pool.stats ctx.pool

let result_json (r : Rc_machine.Machine.result) =
  let open Rc_obs.Json in
  Obj
    [
      ("cycles", Int r.Rc_machine.Machine.cycles);
      ("issued", Int r.Rc_machine.Machine.issued);
      ("connects", Int r.Rc_machine.Machine.connects);
      ("extra_connects", Int r.Rc_machine.Machine.extra_connects);
      ("mem_ops", Int r.Rc_machine.Machine.mem_ops);
      ("branches", Int r.Rc_machine.Machine.branches);
      ("mispredicts", Int r.Rc_machine.Machine.mispredicts);
      ("data_stalls", Int r.Rc_machine.Machine.data_stalls);
      ("map_stalls", Int r.Rc_machine.Machine.map_stalls);
      ("channel_stalls", Int r.Rc_machine.Machine.channel_stalls);
      ("lost_data", Int r.Rc_machine.Machine.lost_data);
      ("lost_map", Int r.Rc_machine.Machine.lost_map);
      ("lost_channel", Int r.Rc_machine.Machine.lost_channel);
      ("lost_branch", Int r.Rc_machine.Machine.lost_branch);
      ("lost_fetch", Int r.Rc_machine.Machine.lost_fetch);
      ("checksum", Str (Int64.to_string r.Rc_machine.Machine.checksum));
    ]

let pass_json (p : Pipeline.pass_metric) =
  let open Rc_obs.Json in
  Obj
    [
      ("pass", Str p.Pipeline.p_name);
      ("wall_s", Float p.Pipeline.p_wall_s);
      ("size_in", Int p.Pipeline.p_size_in);
      ("size_out", Int p.Pipeline.p_size_out);
      ("spills", Int p.Pipeline.p_spills);
      ("connects", Int p.Pipeline.p_connects);
    ]

let breakdown_json (bk : Rc_isa.Mcode.size_breakdown) =
  let open Rc_obs.Json in
  Obj
    [
      ("normal", Int bk.Rc_isa.Mcode.normal);
      ("spill", Int bk.Rc_isa.Mcode.spill);
      ("save", Int bk.Rc_isa.Mcode.save);
      ("xsave", Int bk.Rc_isa.Mcode.xsave);
      ("connects", Int bk.Rc_isa.Mcode.connects);
    ]

let cell_json (key, c) =
  let open Rc_obs.Json in
  Obj
    [
      ("key", Str key);
      ("machine", result_json c.c_result);
      ("code_size", breakdown_json c.c_breakdown);
      ("spills", Int c.c_spills);
      ("passes", List (List.map pass_json c.c_passes));
    ]

(** Machine-readable dump of everything the context measured: one
    object per simulated cell (stall attribution, code size, per-pass
    compile metrics) plus the pool's per-domain telemetry. *)
let metrics_json ctx =
  let open Rc_obs.Json in
  let pool =
    List.map
      (fun (d : Rc_par.Pool.domain_stats) ->
        Obj
          [
            ("domain", Int d.Rc_par.Pool.d_slot);
            ("tasks", Int d.Rc_par.Pool.d_tasks);
            ("busy_s", Float d.Rc_par.Pool.d_busy_s);
            ("wait_s", Float d.Rc_par.Pool.d_wait_s);
          ])
      (pool_stats ctx)
  in
  Obj
    [
      ("scale", Int ctx.scale);
      ("jobs", Int (Rc_par.Pool.jobs ctx.pool));
      ("engine", Str (engine_name ctx.engine));
      ("trace_cache", trace_cache_json ctx);
      ("cells", List (List.map cell_json (cells ctx)));
      ("pool", List pool);
    ]

(* --- registry ------------------------------------------------------------ *)

let all_figures ctx =
  [
    table1 ();
    fig7 ctx;
    fig8_int ctx;
    fig8_fp ctx;
    fig9_int ctx;
    fig9_fp ctx;
    fig10 ctx;
    fig11 ctx;
    fig12 ctx;
    fig13 ctx;
    ablation_models ctx;
    ablation_combine ctx;
    ablation_unroll ctx;
  ]

let by_id ctx id =
  match id with
  | "table1" -> Some (table1 ())
  | "fig7" -> Some (fig7 ctx)
  | "fig8" | "fig8-int" -> Some (fig8_int ctx)
  | "fig8-fp" -> Some (fig8_fp ctx)
  | "fig9" | "fig9-int" -> Some (fig9_int ctx)
  | "fig9-fp" -> Some (fig9_fp ctx)
  | "fig10" -> Some (fig10 ctx)
  | "fig11" -> Some (fig11 ctx)
  | "fig12" -> Some (fig12 ctx)
  | "fig13" -> Some (fig13 ctx)
  | "ablation-models" -> Some (ablation_models ctx)
  | "ablation-combine" -> Some (ablation_combine ctx)
  | "ablation-unroll" -> Some (ablation_unroll ctx)
  | _ -> None
