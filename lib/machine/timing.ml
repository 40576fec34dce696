(** The in-order timing core: every timing rule of the simulated machine,
    driven one instruction at a time.

    Each cycle, instructions issue in program order until the issue rate
    is reached or an instruction cannot issue because (checked in this
    order, which fixes the slot attribution):

    - with 1-cycle connect latency, the instruction's mapping-table
      entries were updated by a connect issued this same cycle (the
      zero-cycle implementation forwards through dispatch instead,
      section 2.4, and never stalls for this reason);
    - no memory channel is free this cycle;
    - the connect dispatch budget (a connect under [`Extra]) or the
      issue slots (everything else) are used up;
    - a source or destination physical register is still being produced
      (CRAY-1-style interlock; results become ready [latency] cycles
      after issue).

    A mispredicted branch additionally pays the front-end redirect
    penalty (one more cycle with the extra RC pipeline stage); it, a
    trap, an [rfe] and a halt end the issue group.

    The core never sees register values.  A driver hands it each
    instruction with its operands already resolved to physical registers
    and its branch outcome known: {!Machine} from its live functional
    step, {!Trace_replay} from a recorded trace — with one {!issue} call
    per instruction, which closes the cycles the instruction's blockers
    demand and then issues it.  Both drivers therefore produce the same
    cycles, stall counters and slot attribution by construction.
    See DESIGN.md §14. *)

open Rc_isa

exception Simulation_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Simulation_error s)) fmt

type stats = {
  mutable cycles : int;
  mutable issued : int;  (** dynamic instructions, connects included *)
  mutable connects : int;
  mutable extra_connects : int;
      (** connects dispatched through the extra connect budget — they do
          not consume regular issue slots (section 2.4) *)
  mutable mem_ops : int;
  mutable branches : int;
  mutable mispredicts : int;
  mutable data_stalls : int;  (** group-ending operand-not-ready events *)
  mutable map_stalls : int;  (** 1-cycle-connect same-group conflicts *)
  mutable channel_stalls : int;
  (* Slot-level stall attribution: every issue slot a cycle leaves
     unused is charged to exactly one reason, maintaining
     [cycles * issue = (issued - extra_connects) + sum of lost_*]. *)
  mutable lost_data : int;  (** operand interlock *)
  mutable lost_map : int;  (** mapping-table conflict / connect budget *)
  mutable lost_channel : int;  (** memory channel busy *)
  mutable lost_branch : int;
      (** control redirect (mispredict, trap, rfe), redirect bubbles
          included *)
  mutable lost_fetch : int;  (** fetch exhausted (halt) *)
}

(** Per-cycle observation delivered to an attached observer: the slots
    issued and lost during one cycle (a mispredicted branch's redirect
    bubbles are folded into the sample of the cycle that issued it, so
    [s_cycles > 1] there). *)
type cycle_sample = {
  s_cycle : int;  (** index of the first cycle covered by the sample *)
  s_cycles : int;  (** cycles covered: 1 + any redirect bubbles *)
  s_pc : int;  (** pc of the first instruction the cycle considered *)
  s_issued : int;  (** instructions issued, connects included *)
  s_connects : int;
  s_lost_data : int;
  s_lost_map : int;
  s_lost_channel : int;
  s_lost_branch : int;
  s_lost_fetch : int;
}

type result = {
  cycles : int;
  issued : int;
  connects : int;
  extra_connects : int;
  mem_ops : int;
  branches : int;
  mispredicts : int;
  data_stalls : int;
  map_stalls : int;
  channel_stalls : int;
  lost_data : int;
  lost_map : int;
  lost_channel : int;
  lost_branch : int;
  lost_fetch : int;
  output : int64 list;
  checksum : int64;
}

let lost_slots (r : result) =
  r.lost_data + r.lost_map + r.lost_channel + r.lost_branch + r.lost_fetch

(** The accounting identity the attribution maintains:
    [cycles * issue = slot-consuming issues + every lost slot].
    Connects dispatched through the extra budget do not consume issue
    slots and are excluded from the left-hand total. *)
let slot_invariant_holds ~issue (r : result) =
  r.cycles * issue = r.issued - r.extra_connects + lost_slots r

(** Why an instruction cannot issue in the open cycle ([Ready] when it
    can), and why a cycle closed: the blockers plus the two control
    reasons used only for slot attribution. *)
type blocker = Ready | Full | Map | Channel | Data | Redirect | Fetch

(** One configuration's complete timing state. *)
type t = {
  iready : int array;  (** per physical register: cycle its value is ready *)
  fready : int array;
  st : stats;
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
  log_writes : bool;
  mutable inflight : int array;
      (** with [log_writes], every scoreboard write, packed
          [(preg lsl 1) lor class]; the trace-replay memo prunes and
          reads it (DESIGN.md §18) *)
  mutable n_inflight : int;
  mutable observer : (cycle_sample -> unit) option;
  mutable cycle_pc : int;  (** observer: the open cycle's first pc *)
  mutable mark : stats;  (** observer: [st] when the open cycle began *)
}

let zero_stats () =
  {
    cycles = 0;
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
  }

(** A fresh core at cycle 0.  [log_writes] (default false) keeps the
    scoreboard write log the trace-replay memo reads. *)
let create ?(log_writes = false) (cfg : Config.t) =
  let budget =
    match cfg.Config.connect_dispatch with `Shared -> 0 | `Extra b -> b
  in
  {
    iready = Array.make cfg.Config.ifile.Reg.total 0;
    fready = Array.make cfg.Config.ffile.Reg.total 0;
    st = zero_stats ();
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
    log_writes;
    inflight = Array.make (if log_writes then 64 else 1) 0;
    n_inflight = 0;
    observer = None;
    cycle_pc = 0;
    mark = zero_stats ();
  }

(** Attach (or clear) the per-cycle observer. *)
let set_observer s obs =
  s.observer <- obs;
  s.mark <- { s.st with cycles = s.st.cycles }

(** True when nothing has issued in the open cycle: a cycle boundary. *)
let fresh s = s.slots = s.issue && s.cslots = s.budget

(** Append a packed scoreboard write to the log. *)
let push_inflight s w =
  if s.n_inflight = Array.length s.inflight then begin
    let a = Array.make (2 * s.n_inflight) 0 in
    Array.blit s.inflight 0 a 0 s.n_inflight;
    s.inflight <- a
  end;
  s.inflight.(s.n_inflight) <- w;
  s.n_inflight <- s.n_inflight + 1

(** Close the open cycle for [reason]: count the stall, charge the
    cycle's unused issue slots to it, deliver the observer sample, check
    fuel (a new cycle only opens while fuel remains and the machine
    runs) and reset the per-cycle resources. *)
let close s reason =
  let st = s.st in
  let lost = s.slots in
  (match reason with
  | Data ->
      st.data_stalls <- st.data_stalls + 1;
      st.lost_data <- st.lost_data + lost
  | Map ->
      st.map_stalls <- st.map_stalls + 1;
      st.lost_map <- st.lost_map + lost
  | Channel ->
      st.channel_stalls <- st.channel_stalls + 1;
      st.lost_channel <- st.lost_channel + lost
  | Redirect -> st.lost_branch <- st.lost_branch + lost
  | Ready | Full | Fetch -> st.lost_fetch <- st.lost_fetch + lost);
  st.cycles <- st.cycles + 1;
  (match s.observer with
  | None -> ()
  | Some f ->
      let m = s.mark in
      f
        {
          s_cycle = m.cycles;
          s_cycles = st.cycles - m.cycles;
          s_pc = s.cycle_pc;
          s_issued = st.issued - m.issued;
          s_connects = st.connects - m.connects;
          s_lost_data = st.lost_data - m.lost_data;
          s_lost_map = st.lost_map - m.lost_map;
          s_lost_channel = st.lost_channel - m.lost_channel;
          s_lost_branch = st.lost_branch - m.lost_branch;
          s_lost_fetch = st.lost_fetch - m.lost_fetch;
        };
      s.mark <- { st with cycles = st.cycles });
  if (not s.halted) && st.cycles >= s.fuel then
    fail "out of fuel after %d cycles" st.cycles;
  s.slots <- s.issue;
  s.cslots <- s.budget;
  s.mem_free <- s.channels;
  (* a store of [] into a pointer field still goes through the write
     barrier: skip it in the common case *)
  if s.pending != [] then s.pending <- [];
  s.cycle <- st.cycles

(* Mapping-table entries touched by connects issued this cycle, for the
   1-cycle connect latency model.  A hand-written scan instead of
   [List.mem] so the (rare) check allocates no comparison tuple. *)
let rec pending_mem cls (kind : Insn.map_kind) r = function
  | [] -> false
  | (c, k, i) :: rest ->
      (Reg.equal_cls c cls && k = kind && i = r) || pending_mem cls kind r rest

let src_blocked pending (d : Dins.t) =
  (d.Dins.nsrcs > 0 && pending_mem d.Dins.s0c Insn.Read d.Dins.s0 pending)
  || (d.Dins.nsrcs > 1 && pending_mem d.Dins.s1c Insn.Read d.Dins.s1 pending)
  || (d.Dins.d >= 0 && pending_mem d.Dins.dc Insn.Write d.Dins.d pending)

let[@inline] reg_ready s (cls : Reg.cls) p =
  match cls with
  | Reg.Int -> s.iready.(p) <= s.cycle
  | Reg.Float -> s.fready.(p) <= s.cycle

(** What keeps [d] — resolved to physical sources [sp0]/[sp1] and
    destination [dp] ([-1] when absent) — from issuing in the open
    cycle, in blocker order; [Ready] when nothing does. *)
let[@inline] blocker s (d : Dins.t) sp0 sp1 dp map_on =
  if s.slots <= 0 && s.cslots <= 0 then Full
  else if
    s.connect_lat > 0 && map_on
    && match s.pending with [] -> false | p -> src_blocked p d
  then Map
  else if d.Dins.is_mem && s.mem_free <= 0 then Channel
  else if d.Dins.is_connect && (not s.shared) && s.cslots <= 0 then Map
  else if ((not d.Dins.is_connect) || s.shared) && s.slots <= 0 then Full
  else if
    (d.Dins.nsrcs < 1 || reg_ready s d.Dins.s0c sp0)
    && (d.Dins.nsrcs < 2 || reg_ready s d.Dins.s1c sp1)
    && (d.Dins.d < 0 || reg_ready s d.Dins.dc dp)
  then Ready
  else Data

let[@inline] write_ready s (cls : Reg.cls) p ready =
  (match cls with
  | Reg.Int -> s.iready.(p) <- ready
  | Reg.Float -> s.fready.(p) <- ready);
  if s.log_writes then
    push_inflight s
      ((p lsl 1) lor match cls with Reg.Int -> 0 | Reg.Float -> 1)

(* Issue [d] in the open cycle: consume its slot and channel, schedule
   its destination's readiness at physical register [dp], and apply its
   opcode's timing effects. *)
let[@inline] commit s (d : Dins.t) dp map_on taken =
  let st = s.st in
  if d.Dins.is_connect && not s.shared then begin
    s.cslots <- s.cslots - 1;
    st.extra_connects <- st.extra_connects + 1
  end
  else s.slots <- s.slots - 1;
  st.issued <- st.issued + 1;
  if d.Dins.is_mem then begin
    s.mem_free <- s.mem_free - 1;
    st.mem_ops <- st.mem_ops + 1
  end;
  let done_at = s.cycle + d.Dins.lat in
  match d.Dins.op with
  | Opcode.Alu _ | Opcode.Alui _ | Opcode.Li | Opcode.Move | Opcode.Ftoi
  | Opcode.Fcmp _ | Opcode.Ld _ | Opcode.Mfmap _ ->
      (* writes to the hardwired zero are discarded *)
      if dp <> Reg.zero then write_ready s Reg.Int dp done_at
  | Opcode.Fli | Opcode.Fmove | Opcode.Fpu _ | Opcode.Itof | Opcode.Fld ->
      write_ready s Reg.Float dp done_at
  | Opcode.St _ | Opcode.Fst | Opcode.Emit | Opcode.Femit | Opcode.Mapen
  | Opcode.Mtmap _ | Opcode.Nop ->
      ()
  (* The front end follows correctly predicted control transfers within
     an issue group ("all combinations of instruction patterns are
     allowed to be executed in parallel", section 5.2); a misprediction
     redirects fetch and pays the front-end penalty, every slot of its
     bubbles lost to the branch. *)
  | Opcode.Br _ ->
      st.branches <- st.branches + 1;
      if taken <> d.Dins.hint then begin
        st.mispredicts <- st.mispredicts + 1;
        st.cycles <- st.cycles + s.penalty;
        st.lost_branch <- st.lost_branch + (s.penalty * s.issue);
        close s Redirect
      end
  | Opcode.Jmp | Opcode.Rts -> st.branches <- st.branches + 1
  | Opcode.Jsr ->
      st.branches <- st.branches + 1;
      (* RA is written at its home location: the map was just reset *)
      write_ready s Reg.Int Reg.ra done_at
  | Opcode.Connect ->
      st.connects <- st.connects + 1;
      if map_on && s.connect_lat > 0 then
        for i = 0 to Array.length d.Dins.connects - 1 do
          let c = d.Dins.connects.(i) in
          s.pending <- (c.Insn.ccls, c.Insn.cmap, c.Insn.ri) :: s.pending
        done
  | Opcode.Trap | Opcode.Rfe -> close s Redirect
  | Opcode.Halt ->
      s.halted <- true;
      close s Fetch

(** Issue instruction [d] at address [pc]: close the cycles its blockers
    demand, then issue it, and return true.  [sp0]/[sp1]/[dp] are its
    physical sources and destination ([-1] when absent), [map_on] the
    PSW map-enable flag it issued under, [taken] a conditional branch's
    real outcome.  With [yield], stop after the first cycle closed and
    return false without issuing, so the driver can act at the cycle
    boundary (take an interrupt) and fetch again. *)
let rec issue s ~pc ~yield d sp0 sp1 dp map_on taken =
  if s.observer != None && fresh s then s.cycle_pc <- pc;
  match blocker s d sp0 sp1 dp map_on with
  | Ready ->
      commit s d dp map_on taken;
      true
  | b ->
      close s b;
      (not yield) && issue s ~pc ~yield d sp0 sp1 dp map_on taken

(** The run's result, from the core's counters and the functional
    side's output. *)
let result s ~output ~checksum =
  let st = s.st in
  {
    cycles = st.cycles;
    issued = st.issued;
    connects = st.connects;
    extra_connects = st.extra_connects;
    mem_ops = st.mem_ops;
    branches = st.branches;
    mispredicts = st.mispredicts;
    data_stalls = st.data_stalls;
    map_stalls = st.map_stalls;
    channel_stalls = st.channel_stalls;
    lost_data = st.lost_data;
    lost_map = st.lost_map;
    lost_channel = st.lost_channel;
    lost_branch = st.lost_branch;
    lost_fetch = st.lost_fetch;
    output;
    checksum;
  }
