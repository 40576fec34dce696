(** Predecoded instructions: the operand-resolved, allocation-free form
    of {!Insn.t} consumed by the simulator's per-instruction step (see
    DESIGN.md, "Simulator predecode"). *)

type t = {
  op : Opcode.t;
  lat : int;  (** issue-to-ready latency, already clamped to [>= 1] *)
  is_mem : bool;
  is_connect : bool;
  nsrcs : int;  (** 0, 1 or 2 *)
  s0c : Reg.cls;
  s0 : int;
  s1c : Reg.cls;
  s1 : int;
  dc : Reg.cls;
  d : int;  (** architectural destination index, [-1] when absent *)
  imm : int64;
  fimm : float;
  target : int;
  hint : bool;
  connects : Insn.connect array;
}

val no_dst : int

(** Decode one instruction under a latency configuration.
    @raise Invalid_argument on more than two register sources. *)
val of_insn : lat:Latency.t -> Insn.t -> t

(** Decode a whole code image under one latency configuration. *)
val decode : lat:Latency.t -> Insn.t array -> t array
