(** The execution-driven simulator: functional execution of
    architectural-form machine code, timed by the in-order core
    {!Timing}.

    Each {!step} resolves the next instruction's operands through the
    mapping tables, lets the core close the cycles its blockers demand,
    executes it and issues it to the core with its real branch outcome.
    This module owns only the functional side: registers, memory, the
    mapping tables, the output stream, the trace recorder, traps, [rfe]
    and interrupts.

    Register accesses go through the register mapping table whenever the
    PSW map-enable flag is set; [jsr]/[rts] reset the table to home
    (section 4.1); traps clear map-enable so handlers address core
    registers directly (section 4.3). *)

open Rc_isa

(** {!Timing.Simulation_error}, re-exported. *)
exception Simulation_error of string

type t = {
  cfg : Config.t;
  image : Image.t;
  pre : Dins.t array;
      (** [image.code] predecoded once under [cfg.lat] (see
          {!Rc_isa.Dins}): the step reads flat scalar fields instead of
          re-matching [Insn.t] and allocating per operand *)
  iregs : int64 array;
  fregs : float array;
  imap : Rc_core.Map_table.t;
  fmap : Rc_core.Map_table.t;
  psw : Rc_core.Psw.t;
  mem : Bytes.t;
  mutable pc : int;
  mutable halted : bool;
  mutable out : int64 array;
      (** the output stream, a growable buffer in emission order; only
          [out.(0 .. out_len - 1)] is meaningful *)
  mutable out_len : int;
  mutable epc : int;
  mutable saved_psw : Rc_core.Psw.t option;
  mutable pending_interrupt : bool;
  mutable recorder : Dtrace.builder option;
      (** when set, every issued instruction appends its resolved
          operands and branch outcome to the builder (see
          {!Rc_machine.Dtrace}); [None] (the default) costs one untaken
          branch per issued instruction *)
  timing : Timing.t;  (** the timing core this machine drives *)
}

(** A fresh machine with data initialised, SP at the stack top and PC at
    the image entry. *)
val create : Config.t -> Image.t -> t

(** The register-state view used by {!Rc_core.Context} for context
    switching. *)
val context_view : t -> Rc_core.Context.machine_view

(** Cycles closed so far. *)
val cycles : t -> int

(** Request an external interrupt; taken at the next cycle boundary. *)
val inject_interrupt : t -> unit

(** Attach (or clear) the per-cycle observer (see {!Timing.set_observer}). *)
val set_observer : t -> (Timing.cycle_sample -> unit) option -> unit

(** Attach (or clear) the dynamic-trace recorder (see {!Dtrace}).  The
    caller must have established {!Dtrace.fits} for this machine's code
    length and register files: the recording path performs no range
    checks. *)
val set_recorder : t -> Dtrace.builder option -> unit

(** The emitted stream so far, in emission order. *)
val output_list : t -> int64 list

(** Issue exactly one instruction, after closing the cycles it must
    wait for; a pending interrupt is taken at the first cycle boundary
    on the way.  A no-op once halted.
    @raise Simulation_error on bad addresses, PC escapes or fuel
    exhaustion. *)
val step : t -> unit

type result = Timing.result = {
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

(** Sum of the five slot-attribution counters. *)
val lost_slots : result -> int

(** The accounting identity the attribution maintains on every
    configuration: [cycles * issue = (issued - extra_connects) +
    lost_slots].  Connects dispatched through the extra budget do not
    consume issue slots and are excluded. *)
val slot_invariant_holds : issue:int -> result -> bool

(** Same fold as {!Rc_interp.Interp.checksum_of_output}. *)
val checksum_of_output : int64 list -> int64

(** Run until [Halt].
    @raise Simulation_error on bad addresses, PC escapes or fuel
    exhaustion. *)
val run_machine : t -> result

(** [create] followed by [run_machine]. *)
val run : Config.t -> Image.t -> result
