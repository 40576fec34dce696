(** The trace-replay timing engine: re-time a recorded execution under
    new configurations without re-executing it.

    {!Machine.run_cycle} interleaves two concerns: functional execution
    (register values, memory, output) and timing (issue grouping,
    scoreboard interlocks, channel arbitration, redirect penalties).  On
    this in-order machine the timing knobs of a {!Config.t} — issue
    rate, memory channels, load/connect latency, the extra pipeline
    stage, the connect dispatch budget — cannot change the dynamic
    instruction stream, only how it packs into cycles.  So the stream is
    recorded once ({!record}) and replay re-runs only the timing half:
    the same per-candidate check sequence as [run_cycle_raw]
    (mapping-table conflict, then memory channel, then issue/connect
    budget, then operand scoreboard), the same slot attribution, the
    same mispredict and fuel accounting — against operands read from the
    trace instead of resolved through live mapping tables.

    Where execution is cycle-driven (each cycle pulls instructions until
    a blocker fires), replay here is {e entry-driven}: for each trace
    entry, close as many cycles as its blockers demand, then issue it.
    The two loops visit the identical sequence of (blocker, cycle)
    events — a cycle with no issues exists exactly when the next entry
    blocks on it — so {!replay} can walk the trace block by block,
    decoding each distinct superblock a single time.

    Replay reproduces {!Machine.result} {e exactly}: cycles, all five
    [lost_*] counters, every stall counter, the checksum, and the slot
    invariant.  The equivalence with execution is enforced by
    [test/t_replay.ml] across the full figure grids and all reset
    models.

    A trace is only meaningful for the image it was recorded from, under
    a configuration whose {e semantic} knobs match the recording (reset
    model, register file shapes — these change register resolution and
    hence values and branch outcomes).  Keying and matching is the
    cache's job ({!Rc_harness.Experiments}); this module checks only
    {!replay_safe}, the conditions under which recording itself is
    sound.  See DESIGN.md §14. *)

open Rc_isa

let fail fmt = Fmt.kstr (fun s -> raise (Machine.Simulation_error s)) fmt

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

(* Duplicated from [Machine] (not exported there): the 1-cycle-connect
   same-group conflict scan over architectural map entries. *)
let rec pending_mem cls (kind : Insn.map_kind) r = function
  | [] -> false
  | (c, k, i) :: rest ->
      (Reg.equal_cls c cls && k = kind && i = r) || pending_mem cls kind r rest

let src_blocked pending (d : Dins.t) =
  (d.Dins.nsrcs > 0 && pending_mem d.Dins.s0c Insn.Read d.Dins.s0 pending)
  || (d.Dins.nsrcs > 1 && pending_mem d.Dins.s1c Insn.Read d.Dins.s1 pending)
  || (d.Dins.d >= 0 && pending_mem d.Dins.dc Insn.Write d.Dins.d pending)

type issue_blocker = Data | Map | Channel | Redirect | Fetch

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

(** One configuration's complete timing state: the scoreboard, the
    per-cycle resources, the stall counters — everything
    [Machine.run_cycle_raw] keeps, minus the functional half. *)
type state = {
  pre : Dins.t array;  (** predecoded under {e this} config's latencies *)
  iready : int array;
  fready : int array;
  st : Machine.stats;
  mutable pending : (Reg.cls * Insn.map_kind * int) list;
      (** map entries touched by connects issued this cycle *)
  mutable slots : int;
  mutable cslots : int;
  mutable mem_free : int;
  mutable cycle : int;  (** [st.cycles] when the open cycle began *)
  mutable halted : bool;
  (* per-configuration constants *)
  issue : int;
  budget : int;  (** per-cycle connect dispatch budget; 0 when shared *)
  shared : bool;
  channels : int;
  connect_lat : int;
  penalty : int;
  fuel : int;
  (* superblock timing memo (DESIGN.md §18) *)
  memo_on : bool;
  memo : (int, (string, memo_val) Hashtbl.t) Hashtbl.t;
      (** [seg_id -> in-signature -> effect]; lives exactly as long as
          this state, i.e. one replay call *)
  mutable inflight : int array;
      (** registers written since the last signature, packed
          [(preg lsl 1) lor class] — the candidate set for positive
          scoreboard residues, so signatures never scan the files *)
  mutable n_inflight : int;
  istamp : int array;  (** per-register dedup stamps for signatures *)
  fstamp : int array;
  mutable stamp : int;
  sigbuf : Buffer.t;
}

let state_of ?(memo = true) (cfg : Config.t) (image : Image.t) =
  let budget =
    match cfg.Config.connect_dispatch with `Shared -> 0 | `Extra b -> b
  in
  {
    pre = Dins.decode ~lat:cfg.Config.lat image.Image.code;
    iready = Array.make cfg.Config.ifile.Reg.total 0;
    fready = Array.make cfg.Config.ffile.Reg.total 0;
    st =
      {
        Machine.cycles = 0;
        issued = 0;
        connects = 0;
        extra_connects = 0;
        mem_ops = 0;
        branches = 0;
        mispredicts = 0;
        data_stalls = 0;
        map_stalls = 0;
        channel_stalls = 0;
        lost_data = 0;
        lost_map = 0;
        lost_channel = 0;
        lost_branch = 0;
        lost_fetch = 0;
      };
    pending = [];
    slots = cfg.Config.issue;
    cslots = budget;
    mem_free = cfg.Config.mem_channels;
    cycle = 0;
    halted = false;
    issue = cfg.Config.issue;
    budget;
    shared = cfg.Config.connect_dispatch = `Shared;
    channels = cfg.Config.mem_channels;
    connect_lat = cfg.Config.lat.Latency.connect;
    penalty = Config.mispredict_penalty cfg;
    fuel = cfg.Config.fuel;
    memo_on = memo;
    memo = Hashtbl.create (if memo then 64 else 1);
    inflight = Array.make (if memo then 64 else 1) 0;
    n_inflight = 0;
    istamp = Array.make (if memo then cfg.Config.ifile.Reg.total else 1) 0;
    fstamp = Array.make (if memo then cfg.Config.ffile.Reg.total else 1) 0;
    stamp = 0;
    sigbuf = Buffer.create 64;
  }

(* Note a scoreboard write so signatures can find in-flight registers
   without scanning the files.  Duplicates are fine (signatures dedup
   by stamp); the list is pruned to live writes at each signature. *)
let[@inline] note_write s cls p =
  if s.memo_on then begin
    if s.n_inflight = Array.length s.inflight then begin
      let a = Array.make (2 * s.n_inflight) 0 in
      Array.blit s.inflight 0 a 0 s.n_inflight;
      s.inflight <- a
    end;
    s.inflight.(s.n_inflight) <-
      (p lsl 1) lor (match cls with Reg.Int -> 0 | Reg.Float -> 1);
    s.n_inflight <- s.n_inflight + 1
  end

(* Close the open cycle for [reason] — the stall counting, slot
   charging and per-cycle resource reset of [run_cycle_raw]'s epilogue,
   plus [run_machine]'s fuel check (a new cycle only opens while fuel
   remains and the machine runs). *)
let end_cycle s (reason : issue_blocker option) =
  let st = s.st in
  (match reason with
  | Some Data -> st.Machine.data_stalls <- st.Machine.data_stalls + 1
  | Some Map -> st.Machine.map_stalls <- st.Machine.map_stalls + 1
  | Some Channel -> st.Machine.channel_stalls <- st.Machine.channel_stalls + 1
  | Some Redirect | Some Fetch | None -> ());
  let lost = s.slots in
  if lost > 0 then begin
    match reason with
    | Some Data -> st.Machine.lost_data <- st.Machine.lost_data + lost
    | Some Map -> st.Machine.lost_map <- st.Machine.lost_map + lost
    | Some Channel -> st.Machine.lost_channel <- st.Machine.lost_channel + lost
    | Some Redirect -> st.Machine.lost_branch <- st.Machine.lost_branch + lost
    | Some Fetch | None -> st.Machine.lost_fetch <- st.Machine.lost_fetch + lost
  end;
  st.Machine.cycles <- st.Machine.cycles + 1;
  if (not s.halted) && st.Machine.cycles >= s.fuel then
    fail "out of fuel after %d cycles" st.Machine.cycles;
  s.slots <- s.issue;
  s.cslots <- s.budget;
  s.mem_free <- s.channels;
  s.pending <- [];
  s.cycle <- st.Machine.cycles

let[@inline] reg_ready s (cls : Reg.cls) p =
  match cls with
  | Reg.Int -> s.iready.(p) <= s.cycle
  | Reg.Float -> s.fready.(p) <= s.cycle

(** Consume one trace entry: end cycles until its blockers clear (in
    [run_cycle_raw]'s exact check order — group exhausted, then
    mapping-table conflict, then memory channel, then issue/connect
    budget, then operand scoreboard), then issue it and apply its
    opcode's timing effects.  A no-op once halted (execution ignores
    anything past the halt). *)
let step s ~idx e =
  if not s.halted then begin
    let d = s.pre.(Dtrace.pc e) in
    let map_on = Dtrace.map_on e in
    let rec attempt () =
      if s.slots <= 0 && s.cslots <= 0 then begin
        end_cycle s None;
        attempt ()
      end
      else if
        s.connect_lat > 0 && map_on
        && (match s.pending with [] -> false | p -> src_blocked p d)
      then begin
        end_cycle s (Some Map);
        attempt ()
      end
      else if d.Dins.is_mem && s.mem_free <= 0 then begin
        end_cycle s (Some Channel);
        attempt ()
      end
      else if d.Dins.is_connect && (not s.shared) && s.cslots <= 0 then begin
        end_cycle s (Some Map);
        attempt ()
      end
      else if ((not d.Dins.is_connect) || s.shared) && s.slots <= 0 then begin
        end_cycle s None;
        attempt ()
      end
      else if
        not
          ((d.Dins.nsrcs < 1 || reg_ready s d.Dins.s0c (Dtrace.sp0 e))
          && (d.Dins.nsrcs < 2 || reg_ready s d.Dins.s1c (Dtrace.sp1 e))
          && (d.Dins.d < 0 || reg_ready s d.Dins.dc (Dtrace.dp e)))
      then begin
        end_cycle s (Some Data);
        attempt ()
      end
      else begin
        (* --- issue --- *)
        let st = s.st in
        if d.Dins.is_connect && not s.shared then begin
          s.cslots <- s.cslots - 1;
          st.Machine.extra_connects <- st.Machine.extra_connects + 1
        end
        else s.slots <- s.slots - 1;
        st.Machine.issued <- st.Machine.issued + 1;
        if d.Dins.is_mem then begin
          s.mem_free <- s.mem_free - 1;
          st.Machine.mem_ops <- st.Machine.mem_ops + 1
        end;
        let done_at = s.cycle + d.Dins.lat in
        match d.Dins.op with
        | Opcode.Alu _ | Opcode.Alui _ | Opcode.Li | Opcode.Move
        | Opcode.Ftoi | Opcode.Fcmp _ | Opcode.Ld _ | Opcode.Mfmap _ ->
            (* [Machine.set_i] skips the hardwired zero *)
            let dp = Dtrace.dp e in
            if dp <> Reg.zero then begin
              s.iready.(dp) <- done_at;
              note_write s Reg.Int dp
            end
        | Opcode.Fli | Opcode.Fmove | Opcode.Fpu _ | Opcode.Itof
        | Opcode.Fld ->
            let dp = Dtrace.dp e in
            s.fready.(dp) <- done_at;
            note_write s Reg.Float dp
        | Opcode.St _ | Opcode.Fst -> ()
        | Opcode.Br _ ->
            st.Machine.branches <- st.Machine.branches + 1;
            if Dtrace.taken e <> d.Dins.hint then begin
              st.Machine.mispredicts <- st.Machine.mispredicts + 1;
              st.Machine.cycles <- st.Machine.cycles + s.penalty;
              st.Machine.lost_branch <-
                st.Machine.lost_branch + (s.penalty * s.issue);
              end_cycle s (Some Redirect)
            end
        | Opcode.Jmp -> st.Machine.branches <- st.Machine.branches + 1
        | Opcode.Jsr ->
            st.Machine.branches <- st.Machine.branches + 1;
            (* execution writes RA's readiness at its {e home} physical
               location (the map was just reset), not at the recorded
               [dp] *)
            if Reg.ra <> Reg.zero then begin
              s.iready.(Reg.ra) <- done_at;
              note_write s Reg.Int Reg.ra
            end
        | Opcode.Rts -> st.Machine.branches <- st.Machine.branches + 1
        | Opcode.Connect ->
            st.Machine.connects <- st.Machine.connects + 1;
            if map_on && s.connect_lat > 0 then
              Array.iter
                (fun (c : Insn.connect) ->
                  s.pending <-
                    (c.Insn.ccls, c.Insn.cmap, c.Insn.ri) :: s.pending)
                d.Dins.connects
        | Opcode.Emit | Opcode.Femit | Opcode.Mapen | Opcode.Mtmap _
        | Opcode.Nop ->
            ()
        | Opcode.Halt ->
            s.halted <- true;
            end_cycle s (Some Fetch)
        | Opcode.Trap | Opcode.Rfe ->
            fail "replay: unreplayable %s in trace at index %d"
              (Opcode.to_string d.Dins.op) idx
      end
    in
    attempt ()
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

(** The in-signature: everything {!step}'s blocker checks and issue
    effects can read from the timing state, relative to the open
    cycle — issue-slot and connect-budget phase, channel occupancy,
    this cycle's map-table touches, and the positive scoreboard
    residues.  Two states with equal signatures behave identically on
    any segment (translation-invariance in the cycle; the fuel check
    is re-tested on every hit).  [None] when a component overflows the
    packed form. *)
let signature s =
  let buf = s.sigbuf in
  Buffer.clear buf;
  try
    sig_byte buf s.slots;
    sig_byte buf s.cslots;
    sig_byte buf s.mem_free;
    (match s.pending with
    | [] -> sig_byte buf 0
    | p ->
        (* membership is all [pending_mem] reads, so a sorted encoding
           is canonical *)
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
    for i = 0 to s.n_inflight - 1 do
      let w = s.inflight.(i) in
      let p = w lsr 1 in
      if w land 1 = 0 then begin
        if s.iready.(p) > s.cycle && s.istamp.(p) <> stamp then begin
          s.istamp.(p) <- stamp;
          s.inflight.(!live) <- w;
          incr live
        end
      end
      else if s.fready.(p) > s.cycle && s.fstamp.(p) <> stamp then begin
        s.fstamp.(p) <- stamp;
        s.inflight.(!live) <- w;
        incr live
      end
    done;
    s.n_inflight <- !live;
    if !live > max_inflight then raise Sig_overflow;
    let sub = Array.sub s.inflight 0 !live in
    Array.sort compare sub;
    sig_byte buf !live;
    Array.iter
      (fun w ->
        let p = w lsr 1 in
        let ready = if w land 1 = 0 then s.iready.(p) else s.fready.(p) in
        let residue = ready - s.cycle in
        if residue > max_residue then raise Sig_overflow;
        sig_le16 buf w;
        sig_byte buf residue)
      sub;
    Some (Buffer.contents buf)
  with Sig_overflow -> None

(* The 14 non-cycle stats fields, in one fixed order. *)
let snapshot_stats (st : Machine.stats) =
  [|
    st.Machine.issued;
    st.Machine.connects;
    st.Machine.extra_connects;
    st.Machine.mem_ops;
    st.Machine.branches;
    st.Machine.mispredicts;
    st.Machine.data_stalls;
    st.Machine.map_stalls;
    st.Machine.channel_stalls;
    st.Machine.lost_data;
    st.Machine.lost_map;
    st.Machine.lost_channel;
    st.Machine.lost_branch;
    st.Machine.lost_fetch;
  |]

let apply_dstats (st : Machine.stats) (d : int array) =
  st.Machine.issued <- st.Machine.issued + d.(0);
  st.Machine.connects <- st.Machine.connects + d.(1);
  st.Machine.extra_connects <- st.Machine.extra_connects + d.(2);
  st.Machine.mem_ops <- st.Machine.mem_ops + d.(3);
  st.Machine.branches <- st.Machine.branches + d.(4);
  st.Machine.mispredicts <- st.Machine.mispredicts + d.(5);
  st.Machine.data_stalls <- st.Machine.data_stalls + d.(6);
  st.Machine.map_stalls <- st.Machine.map_stalls + d.(7);
  st.Machine.channel_stalls <- st.Machine.channel_stalls + d.(8);
  st.Machine.lost_data <- st.Machine.lost_data + d.(9);
  st.Machine.lost_map <- st.Machine.lost_map + d.(10);
  st.Machine.lost_channel <- st.Machine.lost_channel + d.(11);
  st.Machine.lost_branch <- st.Machine.lost_branch + d.(12);
  st.Machine.lost_fetch <- st.Machine.lost_fetch + d.(13)

let run_seg_slow s ~idx (seg : Dtrace.seg) =
  let es = seg.Dtrace.seg_entries in
  for i = 0 to Array.length es - 1 do
    step s ~idx:(idx + i) es.(i)
  done

let[@inline] push_inflight s w =
  if s.n_inflight = Array.length s.inflight then begin
    let a = Array.make (2 * s.n_inflight) 0 in
    Array.blit s.inflight 0 a 0 s.n_inflight;
    s.inflight <- a
  end;
  s.inflight.(s.n_inflight) <- w;
  s.n_inflight <- s.n_inflight + 1

let apply_memo s v =
  let st = s.st in
  st.Machine.cycles <- st.Machine.cycles + v.v_dcycles;
  apply_dstats st v.v_dstats;
  s.slots <- v.v_slots;
  s.cslots <- v.v_cslots;
  s.mem_free <- v.v_mem_free;
  s.pending <-
    (if v.v_dcycles > 0 then v.v_pending else v.v_pending @ s.pending);
  s.cycle <- st.Machine.cycles;
  for i = 0 to Array.length v.v_writes - 1 do
    let w = v.v_writes.(i) in
    let residue = w lsr 13 in
    let p = (w lsr 1) land 0xfff in
    if w land 1 = 0 then s.iready.(p) <- s.cycle + residue
    else s.fready.(p) <- s.cycle + residue;
    push_inflight s (w land 0x1fff)
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
  let st = s.st in
  let c0 = st.Machine.cycles in
  let snap = snapshot_stats st in
  let pend0 = List.length s.pending in
  let mark = s.n_inflight in
  run_seg_slow s ~idx seg;
  let dcycles = st.Machine.cycles - c0 in
  try
    (* scoreboard writes still in flight at exit, deduped to the final
       (= current) readiness per register *)
    s.stamp <- s.stamp + 1;
    let stamp = s.stamp in
    let nw = ref 0 in
    for i = mark to s.n_inflight - 1 do
      let w = s.inflight.(i) in
      let p = w lsr 1 in
      if p > 0xfff then raise Sig_overflow;
      let stamps = if w land 1 = 0 then s.istamp else s.fstamp in
      if stamps.(p) <> stamp then begin
        stamps.(p) <- stamp;
        let ready = if w land 1 = 0 then s.iready.(p) else s.fready.(p) in
        if ready > s.cycle then begin
          if ready - s.cycle > max_residue then raise Sig_overflow;
          s.inflight.(mark + !nw) <- w;
          (* compact the marked span; dead entries drop *)
          incr nw
        end
      end
    done;
    let writes =
      Array.init !nw (fun i ->
          let w = s.inflight.(mark + i) in
          let p = w lsr 1 in
          let ready = if w land 1 = 0 then s.iready.(p) else s.fready.(p) in
          ((ready - s.cycle) lsl 13) lor w)
    in
    s.n_inflight <- mark + !nw;
    let v =
      {
        v_dcycles = dcycles;
        v_dstats =
          (let now = snapshot_stats st in
           Array.init 14 (fun i -> now.(i) - snap.(i)));
        v_slots = s.slots;
        v_cslots = s.cslots;
        v_mem_free = s.mem_free;
        v_pending =
          (if dcycles > 0 then s.pending
           else firstn (List.length s.pending - pend0) s.pending);
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
  if s.halted then () (* step is a no-op once halted *)
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
        | Some v when s.st.Machine.cycles + v.v_dcycles < s.fuel ->
            bump_hit stats;
            apply_memo s v
        | Some _ ->
            (* the memoised effect would cross the fuel limit: re-run
               per-entry so the failure fires at the exact cycle *)
            bump_fallback stats;
            run_seg_slow s ~idx seg
        | None -> record_seg s tbl key ~idx stats seg)

let result_of s ~output ~checksum =
  if not s.halted then fail "replay: trace exhausted before halt";
  let st = s.st in
  {
    Machine.cycles = st.Machine.cycles;
    issued = st.Machine.issued;
    connects = st.Machine.connects;
    extra_connects = st.Machine.extra_connects;
    mem_ops = st.Machine.mem_ops;
    branches = st.Machine.branches;
    mispredicts = st.Machine.mispredicts;
    data_stalls = st.Machine.data_stalls;
    map_stalls = st.Machine.map_stalls;
    channel_stalls = st.Machine.channel_stalls;
    lost_data = st.Machine.lost_data;
    lost_map = st.Machine.lost_map;
    lost_channel = st.Machine.lost_channel;
    lost_branch = st.Machine.lost_branch;
    lost_fetch = st.Machine.lost_fetch;
    output;
    checksum;
  }

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
  result_of s ~output:(Dtrace.output tr) ~checksum:tr.Dtrace.checksum

let replay_batch ?memo ?stats cfgs image tr =
  Array.map (fun cfg -> replay ?memo ?stats cfg image tr) cfgs
