(** Predecoded instructions: the operand-resolved, allocation-free form
    of {!Insn.t} consumed by the simulator's per-instruction step.

    An architectural-form program is decoded once per simulation
    ({!decode}); the hot loop then reads flat scalar fields — opcode,
    clamped latency, unpacked operand class/index pairs — instead of
    re-matching [Insn.t] variants and allocating a physical-operand
    array and destination option per issue attempt.  Instructions carry
    at most two register sources, so sources are unpacked into two
    slots; [d = -1] encodes "no destination". *)

type t = {
  op : Opcode.t;
  lat : int;  (** issue-to-ready latency under the decode's {!Latency.t},
                  already clamped to [>= 1] *)
  is_mem : bool;
  is_connect : bool;
  nsrcs : int;  (** 0, 1 or 2 *)
  s0c : Reg.cls;
  s0 : int;  (** architectural index of source 0 (when [nsrcs > 0]) *)
  s1c : Reg.cls;
  s1 : int;
  dc : Reg.cls;
  d : int;  (** architectural destination index, [-1] when absent *)
  imm : int64;
  fimm : float;
  target : int;
  hint : bool;
  connects : Insn.connect array;  (** non-empty iff [op = Connect] *)
}

let no_dst = -1

let of_insn ~(lat : Latency.t) (i : Insn.t) =
  let srcs = i.Insn.srcs in
  let nsrcs = Array.length srcs in
  if nsrcs > 2 then invalid_arg "Dins.of_insn: more than two sources";
  let s0c, s0 =
    if nsrcs > 0 then (srcs.(0).Insn.cls, srcs.(0).Insn.r) else (Reg.Int, 0)
  in
  let s1c, s1 =
    if nsrcs > 1 then (srcs.(1).Insn.cls, srcs.(1).Insn.r) else (Reg.Int, 0)
  in
  let dc, d =
    match i.Insn.dst with
    | Some o -> (o.Insn.cls, o.Insn.r)
    | None -> (Reg.Int, no_dst)
  in
  {
    op = i.Insn.op;
    lat = max 1 (Latency.of_opcode lat i.Insn.op);
    is_mem = Insn.is_mem i;
    is_connect = Insn.is_connect i;
    nsrcs;
    s0c;
    s0;
    s1c;
    s1;
    dc;
    d;
    imm = i.Insn.imm;
    fimm = i.Insn.fimm;
    target = i.Insn.target;
    hint = i.Insn.hint;
    connects = i.Insn.connects;
  }

(** Decode a whole code image under one latency configuration. *)
let decode ~lat (code : Insn.t array) = Array.map (of_insn ~lat) code
