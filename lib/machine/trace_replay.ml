(** The trace-replay timing engine: re-time a recorded execution under
    new configurations without re-executing it.

    On this in-order machine the timing knobs of a {!Config.t} — issue
    rate, memory channels, load/connect latency, the extra pipeline
    stage, the connect dispatch budget — cannot change the dynamic
    instruction stream, only how it packs into cycles.  So the stream is
    recorded once ({!record}) with every instruction's resolved operands
    and branch outcome, and replay feeds it to the same timing core
    ({!Timing}) that execution drives from its live functional step —
    one {!Timing.issue} per trace entry.  Replay therefore reproduces
    {!Machine.result} {e exactly} by construction: cycles, all five
    [lost_*] counters, every stall counter, the checksum and the slot
    invariant ([test/t_replay.ml] checks it across the full figure grids
    and all reset models).

    What replay adds is the walk: {!replay} takes the trace block by
    block, decoding each distinct superblock a single time, and the
    superblock timing memo (DESIGN.md §18) serves repeated visits to a
    segment in an already-seen timing state with one hash probe.

    A trace is only meaningful for the image it was recorded from, under
    a configuration whose {e semantic} knobs match the recording (reset
    model, register file shapes — these change register resolution and
    hence values and branch outcomes).  Keying and matching is the
    cache's job ({!Rc_harness.Experiments}); this module checks only
    {!replay_safe}, the conditions under which recording itself is
    sound.  See DESIGN.md §14. *)

open Rc_isa

let fail = Timing.fail

(** No trap handler configured: the program cannot trap, and interrupt
    injection — the other unreplayable event — is driver-initiated and
    never happens under the harness entry points that use this engine.
    (A [Trap]/[Rfe] or injected interrupt during recording additionally
    invalidates the builder, so an unreplayable run can never produce a
    trace.) *)
let replay_safe (cfg : Config.t) = Option.is_none cfg.Config.trap_handler

(** Execute [image] under [cfg] with a recorder attached: the ordinary
    execution-driven result, plus the trace when the run was replayable.
    A shape that cannot fit the packed layout skips the recorder
    entirely — {!Dtrace.fits} is the one range check, hoisted out of
    the per-instruction path. *)
let record (cfg : Config.t) (image : Image.t) =
  let code_len = Array.length image.Image.code in
  if
    not
      (Dtrace.fits ~code_len ~ireg_total:cfg.Config.ifile.Reg.total
         ~freg_total:cfg.Config.ffile.Reg.total)
  then (Machine.run_machine (Machine.create cfg image), None)
  else begin
    let m = Machine.create cfg image in
    let arch =
      Dtrace.arch_of_dins (Dins.decode ~lat:cfg.Config.lat image.Image.code)
    in
    let b = Dtrace.builder ~hint:(4 * code_len) arch in
    Machine.set_recorder m (Some b);
    let r = Machine.run_machine m in
    let tr =
      Dtrace.finish b ~output:r.Machine.output ~checksum:r.Machine.checksum
    in
    (r, tr)
  end

(* --- the superblock timing memo (DESIGN.md §18) ------------------------- *)

(** Cumulative counters for the superblock timing memo, aggregated over
    every {!replay} call the record is passed to.
    Each memoisable-segment visit lands in exactly one of [m_hits]
    (served by a memo probe), [m_misses] (replayed per-entry and
    recorded into the memo) or [m_fallbacks] (replayed per-entry
    because the visit was ineligible: a halting segment, a fuel
    boundary, or a signature/value that overflows the packed forms).
    [m_bytes] approximates the memo tables' peak heap footprint. *)
type memo_stats = {
  mutable m_hits : int;
  mutable m_misses : int;
  mutable m_fallbacks : int;
  mutable m_bytes : int;
}

let memo_stats () = { m_hits = 0; m_misses = 0; m_fallbacks = 0; m_bytes = 0 }

(* The memoised effect of one (segment, in-signature) pair on one
   configuration's timing state.  Every field is relative to the cycle
   the visit began on — timing dynamics are translation-invariant in
   the cycle except for the fuel check, which the hit path re-tests. *)
type memo_val = {
  v_dcycles : int;
  v_dstats : int array;  (** the 14 non-cycle {!Machine.stats} deltas *)
  v_slots : int;
  v_cslots : int;
  v_mem_free : int;
  v_pending : (Reg.cls * Insn.map_kind * int) list;
      (** map entries prepended after the last cycle close inside the
          segment: the whole out-pending when [v_dcycles > 0], a prefix
          to re-prepend onto the caller's pending otherwise *)
  v_writes : int array;
      (** scoreboard writes still in flight at segment exit, packed
          [(residue lsl 13) lor (preg lsl 1) lor class]; residues are
          relative to the exit cycle and positive (an expired write is
          indistinguishable from no write) *)
}

(* Packed-form bounds for signatures and memo values; anything outside
   falls back to the per-entry loop. *)
let max_residue = 255
let max_inflight = 64
let max_pending = 64

(** One configuration's replay state: the timing core plus the memo's
    bookkeeping. *)
type state = {
  pre : Dins.t array;  (** predecoded under {e this} config's latencies *)
  core : Timing.t;  (** logs scoreboard writes when the memo is on *)
  memo_on : bool;
  memo : (int, (string, memo_val) Hashtbl.t) Hashtbl.t;
      (** [seg_id -> in-signature -> effect]; lives exactly as long as
          this state, i.e. one replay call *)
  istamp : int array;  (** per-register dedup stamps for signatures *)
  fstamp : int array;
  mutable stamp : int;
  sigbuf : Buffer.t;
}

let state_of ?(memo = true) (cfg : Config.t) (image : Image.t) =
  {
    pre = Dins.decode ~lat:cfg.Config.lat image.Image.code;
    core = Timing.create ~log_writes:memo cfg;
    memo_on = memo;
    memo = Hashtbl.create (if memo then 64 else 1);
    istamp = Array.make (if memo then cfg.Config.ifile.Reg.total else 1) 0;
    fstamp = Array.make (if memo then cfg.Config.ffile.Reg.total else 1) 0;
    stamp = 0;
    sigbuf = Buffer.create 64;
  }

(** Feed one trace entry to the core.  A no-op once halted (execution
    ignores anything past the halt). *)
let[@inline] step s ~idx e =
  let c = s.core in
  if not c.Timing.halted then begin
    let pc = Dtrace.pc e in
    let d = s.pre.(pc) in
    (match d.Dins.op with
    | Opcode.Trap | Opcode.Rfe ->
        fail "replay: unreplayable %s in trace at index %d"
          (Opcode.to_string d.Dins.op) idx
    | _ -> ());
    (* unpack only the fields this opcode has: each accessor is a call *)
    let sp0 = if d.Dins.nsrcs > 0 then Dtrace.sp0 e else -1 in
    let sp1 = if d.Dins.nsrcs > 1 then Dtrace.sp1 e else -1 in
    let dp = if d.Dins.d >= 0 then Dtrace.dp e else -1 in
    let taken =
      match d.Dins.op with Opcode.Br _ -> Dtrace.taken e | _ -> false
    in
    ignore
      (Timing.issue c ~pc ~yield:false d sp0 sp1 dp (Dtrace.map_on e) taken)
  end

(* --- the memo fast path (DESIGN.md §18) ---------------------------------- *)

exception Sig_overflow

let[@inline] sig_byte buf v =
  if v < 0 || v > 255 then raise Sig_overflow;
  Buffer.add_char buf (Char.unsafe_chr v)

let[@inline] sig_le16 buf v =
  if v < 0 || v > 0xffff then raise Sig_overflow;
  Buffer.add_char buf (Char.unsafe_chr (v land 0xff));
  Buffer.add_char buf (Char.unsafe_chr (v lsr 8))

(** The in-signature: everything the core's blocker checks and issue
    effects can read from its state, relative to the open
    cycle — issue-slot and connect-budget phase, channel occupancy,
    this cycle's map-table touches, and the positive scoreboard
    residues.  Two states with equal signatures behave identically on
    any segment (translation-invariance in the cycle; the fuel check
    is re-tested on every hit).  [None] when a component overflows the
    packed form. *)
let signature s =
  let c = s.core and buf = s.sigbuf in
  Buffer.clear buf;
  try
    sig_byte buf c.Timing.slots;
    sig_byte buf c.Timing.cslots;
    sig_byte buf c.Timing.mem_free;
    (match c.Timing.pending with
    | [] -> sig_byte buf 0
    | p ->
        (* the core only tests membership ([Timing.pending_mem]), so a
           sorted encoding is canonical *)
        let sorted = List.sort compare p in
        let n = List.length sorted in
        if n > max_pending then raise Sig_overflow;
        sig_byte buf n;
        List.iter
          (fun ((cls : Reg.cls), (kind : Insn.map_kind), i) ->
            sig_byte buf
              ((match cls with Reg.Int -> 0 | Reg.Float -> 1)
              lor match kind with Insn.Read -> 0 | Insn.Write -> 2);
            sig_le16 buf i)
          sorted);
    (* Prune the inflight list to live, distinct writes (in place),
       then emit the residues in canonical order. *)
    s.stamp <- s.stamp + 1;
    let stamp = s.stamp in
    let live = ref 0 in
    for i = 0 to c.Timing.n_inflight - 1 do
      let w = c.Timing.inflight.(i) in
      let p = w lsr 1 in
      if w land 1 = 0 then begin
        if c.Timing.iready.(p) > c.Timing.cycle && s.istamp.(p) <> stamp
        then begin
          s.istamp.(p) <- stamp;
          c.Timing.inflight.(!live) <- w;
          incr live
        end
      end
      else if c.Timing.fready.(p) > c.Timing.cycle && s.fstamp.(p) <> stamp
      then begin
        s.fstamp.(p) <- stamp;
        c.Timing.inflight.(!live) <- w;
        incr live
      end
    done;
    c.Timing.n_inflight <- !live;
    if !live > max_inflight then raise Sig_overflow;
    let sub = Array.sub c.Timing.inflight 0 !live in
    Array.sort compare sub;
    sig_byte buf !live;
    Array.iter
      (fun w ->
        let p = w lsr 1 in
        let ready =
          if w land 1 = 0 then c.Timing.iready.(p) else c.Timing.fready.(p)
        in
        let residue = ready - c.Timing.cycle in
        if residue > max_residue then raise Sig_overflow;
        sig_le16 buf w;
        sig_byte buf residue)
      sub;
    Some (Buffer.contents buf)
  with Sig_overflow -> None

(* The 14 non-cycle stats fields, in one fixed order. *)
let snapshot_stats (st : Timing.stats) =
  [|
    st.Timing.issued;
    st.Timing.connects;
    st.Timing.extra_connects;
    st.Timing.mem_ops;
    st.Timing.branches;
    st.Timing.mispredicts;
    st.Timing.data_stalls;
    st.Timing.map_stalls;
    st.Timing.channel_stalls;
    st.Timing.lost_data;
    st.Timing.lost_map;
    st.Timing.lost_channel;
    st.Timing.lost_branch;
    st.Timing.lost_fetch;
  |]

let apply_dstats (st : Timing.stats) (d : int array) =
  st.Timing.issued <- st.Timing.issued + d.(0);
  st.Timing.connects <- st.Timing.connects + d.(1);
  st.Timing.extra_connects <- st.Timing.extra_connects + d.(2);
  st.Timing.mem_ops <- st.Timing.mem_ops + d.(3);
  st.Timing.branches <- st.Timing.branches + d.(4);
  st.Timing.mispredicts <- st.Timing.mispredicts + d.(5);
  st.Timing.data_stalls <- st.Timing.data_stalls + d.(6);
  st.Timing.map_stalls <- st.Timing.map_stalls + d.(7);
  st.Timing.channel_stalls <- st.Timing.channel_stalls + d.(8);
  st.Timing.lost_data <- st.Timing.lost_data + d.(9);
  st.Timing.lost_map <- st.Timing.lost_map + d.(10);
  st.Timing.lost_channel <- st.Timing.lost_channel + d.(11);
  st.Timing.lost_branch <- st.Timing.lost_branch + d.(12);
  st.Timing.lost_fetch <- st.Timing.lost_fetch + d.(13)

let run_seg_slow s ~idx (seg : Dtrace.seg) =
  let es = seg.Dtrace.seg_entries in
  for i = 0 to Array.length es - 1 do
    step s ~idx:(idx + i) es.(i)
  done

let apply_memo s v =
  let c = s.core in
  let st = c.Timing.st in
  st.Timing.cycles <- st.Timing.cycles + v.v_dcycles;
  apply_dstats st v.v_dstats;
  c.Timing.slots <- v.v_slots;
  c.Timing.cslots <- v.v_cslots;
  c.Timing.mem_free <- v.v_mem_free;
  c.Timing.pending <-
    (if v.v_dcycles > 0 then v.v_pending
     else v.v_pending @ c.Timing.pending);
  c.Timing.cycle <- st.Timing.cycles;
  for i = 0 to Array.length v.v_writes - 1 do
    let w = v.v_writes.(i) in
    let residue = w lsr 13 in
    let p = (w lsr 1) land 0xfff in
    if w land 1 = 0 then c.Timing.iready.(p) <- c.Timing.cycle + residue
    else c.Timing.fready.(p) <- c.Timing.cycle + residue;
    Timing.push_inflight c (w land 0x1fff)
  done

let rec firstn n = function
  | [] -> []
  | x :: r -> if n <= 0 then [] else x :: firstn (n - 1) r

let[@inline] bump_hit = function
  | None -> ()
  | Some m -> m.m_hits <- m.m_hits + 1

let[@inline] bump_fallback = function
  | None -> ()
  | Some m -> m.m_fallbacks <- m.m_fallbacks + 1

(* Replay the visit per-entry while measuring its effect, then store
   the effect under [key].  An effect that does not fit the packed
   forms is simply not stored (the visit already ran exactly). *)
let record_seg s tbl key ~idx stats (seg : Dtrace.seg) =
  let c = s.core in
  let st = c.Timing.st in
  let c0 = st.Timing.cycles in
  let snap = snapshot_stats st in
  let pend0 = List.length c.Timing.pending in
  let mark = c.Timing.n_inflight in
  run_seg_slow s ~idx seg;
  let dcycles = st.Timing.cycles - c0 in
  try
    (* scoreboard writes still in flight at exit, deduped to the final
       (= current) readiness per register *)
    s.stamp <- s.stamp + 1;
    let stamp = s.stamp in
    let nw = ref 0 in
    for i = mark to c.Timing.n_inflight - 1 do
      let w = c.Timing.inflight.(i) in
      let p = w lsr 1 in
      if p > 0xfff then raise Sig_overflow;
      let stamps = if w land 1 = 0 then s.istamp else s.fstamp in
      if stamps.(p) <> stamp then begin
        stamps.(p) <- stamp;
        let ready =
          if w land 1 = 0 then c.Timing.iready.(p) else c.Timing.fready.(p)
        in
        if ready > c.Timing.cycle then begin
          if ready - c.Timing.cycle > max_residue then raise Sig_overflow;
          c.Timing.inflight.(mark + !nw) <- w;
          (* compact the marked span; dead entries drop *)
          incr nw
        end
      end
    done;
    let writes =
      Array.init !nw (fun i ->
          let w = c.Timing.inflight.(mark + i) in
          let p = w lsr 1 in
          let ready =
          if w land 1 = 0 then c.Timing.iready.(p) else c.Timing.fready.(p)
        in
          ((ready - c.Timing.cycle) lsl 13) lor w)
    in
    c.Timing.n_inflight <- mark + !nw;
    let v =
      {
        v_dcycles = dcycles;
        v_dstats =
          (let now = snapshot_stats st in
           Array.init 14 (fun i -> now.(i) - snap.(i)));
        v_slots = c.Timing.slots;
        v_cslots = c.Timing.cslots;
        v_mem_free = c.Timing.mem_free;
        v_pending =
          (if dcycles > 0 then c.Timing.pending
           else
             firstn (List.length c.Timing.pending - pend0) c.Timing.pending);
        v_writes = writes;
      }
    in
    Hashtbl.replace tbl key v;
    match stats with
    | None -> ()
    | Some m ->
        m.m_misses <- m.m_misses + 1;
        m.m_bytes <-
          m.m_bytes + String.length key + 120
          + (8 * Array.length writes)
          + (24 * List.length v.v_pending)
  with Sig_overflow -> bump_fallback stats

(** Advance one state over one whole superblock visit: probe the memo
    when the segment is memoisable and the signature fits, fall back to
    the exact per-entry loop otherwise.  [can_memo] is false for
    segments containing Halt/Trap/Rfe (halting flips [halted] — which
    the signature deliberately omits — and trapping raises). *)
let seg_step s ~idx ~can_memo stats (seg : Dtrace.seg) =
  let c = s.core in
  if c.Timing.halted then () (* step is a no-op once halted *)
  else if not (s.memo_on && can_memo) then begin
    if s.memo_on then bump_fallback stats;
    run_seg_slow s ~idx seg
  end
  else
    match signature s with
    | None ->
        bump_fallback stats;
        run_seg_slow s ~idx seg
    | Some key -> (
        let tbl =
          match Hashtbl.find_opt s.memo seg.Dtrace.seg_id with
          | Some t -> t
          | None ->
              let t = Hashtbl.create 8 in
              Hashtbl.add s.memo seg.Dtrace.seg_id t;
              t
        in
        match Hashtbl.find_opt tbl key with
        | Some v when c.Timing.st.Timing.cycles + v.v_dcycles < c.Timing.fuel
          ->
            bump_hit stats;
            apply_memo s v
        | Some _ ->
            (* the memoised effect would cross the fuel limit: re-run
               per-entry so the failure fires at the exact cycle *)
            bump_fallback stats;
            run_seg_slow s ~idx seg
        | None -> record_seg s tbl key ~idx stats seg)

(** Re-time one trace under one configuration: the token stream is
    decoded block by block (each distinct superblock's entries exactly
    once, via the block cursor's identity cache).  With [memo] on (the
    default), the state keeps a per-segment timing memo so repeated
    visits to a hot loop body in an already-seen timing state cost one
    hash probe instead of a per-instruction blocker sequence —
    bit-identical to the memo-off path by construction, enforced
    field-by-field in [test/t_memo.ml].  [stats] accumulates the memo
    counters.  The caller guarantees [tr] was recorded from [image]
    under semantic knobs matching [cfg]; its timing knobs are free.
    @raise Machine.Simulation_error on fuel exhaustion or a trace that
    could not have come from a replay-safe recording. *)
let replay ?(memo = true) ?stats (cfg : Config.t) (image : Image.t)
    (tr : Dtrace.t) =
  let s = state_of ~memo cfg image in
  let bc = Dtrace.bcursor (Dtrace.arch_of_dins s.pre) tr in
  (* seg_id -> whether the segment is free of Halt/Trap/Rfe, computed
     once per distinct segment *)
  let memoable = Hashtbl.create 32 in
  while Dtrace.bidx bc < tr.Dtrace.n do
    match Dtrace.next_block bc with
    | Dtrace.Lit e -> step s ~idx:(Dtrace.bidx bc - 1) e
    | Dtrace.Run seg ->
        let can_memo =
          match Hashtbl.find_opt memoable seg.Dtrace.seg_id with
          | Some b -> b
          | None ->
              let ok =
                Array.for_all
                  (fun e ->
                    match s.pre.(Dtrace.pc e).Dins.op with
                    | Opcode.Halt | Opcode.Trap | Opcode.Rfe -> false
                    | _ -> true)
                  seg.Dtrace.seg_entries
              in
              Hashtbl.replace memoable seg.Dtrace.seg_id ok;
              ok
        in
        seg_step s ~idx:(Dtrace.bidx bc - seg.Dtrace.seg_len) ~can_memo stats
          seg
  done;
  if not s.core.Timing.halted then fail "replay: trace exhausted before halt";
  Timing.result s.core ~output:(Dtrace.output tr) ~checksum:tr.Dtrace.checksum

let replay_batch ?memo ?stats cfgs image tr =
  Array.map (fun cfg -> replay ?memo ?stats cfg image tr) cfgs
