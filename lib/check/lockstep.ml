(** Lockstep co-simulation: the cycle-accurate machine against the
    sequential {!Rc_interp.Iexec} oracle on the same image.

    The machine executes functionally at issue, one instruction per
    {!Rc_machine.Machine.step}, so after every step its architectural
    state (registers, maps, PSW, output) must equal the oracle's after
    one {!Rc_interp.Iexec.step}.  We compare the complete state after
    every instruction (memory once at the end), so a divergence is
    reported at the instruction that caused it.

    The first disagreement stops the run and is reported with the
    faulting address, enclosing function and block, and a disassembled
    window — not a final-checksum mismatch. *)

open Rc_isa
open Rc_core
module Machine = Rc_machine.Machine
module Iexec = Rc_interp.Iexec

type result =
  | Agree of { cycles : int; steps : int }
  | Diverged of Report.t

(* --- state comparison ----------------------------------------------------- *)

(* Floats compare as bit patterns so NaNs and signed zeros count as
   what they are. *)
let float_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let find_reg_mismatch (m : Machine.t) (o : Iexec.t) =
  let bad = ref None in
  Array.iteri
    (fun p v ->
      if !bad = None && not (Int64.equal v o.Iexec.iregs.(p)) then
        bad :=
          Some
            ( "ireg",
              Fmt.str "r%d: machine %Ld, oracle %Ld" p v o.Iexec.iregs.(p) ))
    m.Machine.iregs;
  Array.iteri
    (fun p v ->
      if !bad = None && not (float_eq v o.Iexec.fregs.(p)) then
        bad :=
          Some
            ( "freg",
              Fmt.str "f%d: machine %h, oracle %h" p v o.Iexec.fregs.(p) ))
    m.Machine.fregs;
  !bad

(* Entry-by-entry, not [Map_table.equal]: the oracle may deliberately
   run a different reset model ([?oracle_model]), and the question is
   whether the architectural mapping state itself diverged. *)
let map_mismatch name (a : Map_table.t) (b : Map_table.t) =
  let bad = ref None in
  for i = Map_table.entries a - 1 downto 0 do
    if
      a.Map_table.read_map.(i) <> b.Map_table.read_map.(i)
      || a.Map_table.write_map.(i) <> b.Map_table.write_map.(i)
    then
      bad :=
        Some
          ( name,
            Fmt.str "%s[%d]: machine r->%d w->%d, oracle r->%d w->%d" name i
              a.Map_table.read_map.(i)
              a.Map_table.write_map.(i)
              b.Map_table.read_map.(i)
              b.Map_table.write_map.(i) )
  done;
  !bad

(* The machine's output is a buffer in emission order; the oracle's is
   a reversed list.  Walk the oracle list backwards down the buffer. *)
let output_mismatch (m : Machine.t) (o : Iexec.t) =
  let n = m.Machine.out_len and b = o.Iexec.out_rev in
  if n <> List.length b then
    Some (Fmt.str "machine emitted %d values, oracle %d" n (List.length b))
  else
    let bad = ref None in
    List.iteri
      (fun j vb ->
        let i = n - 1 - j in
        let va = m.Machine.out.(i) in
        if not (Int64.equal va vb) then
          bad := Some (Fmt.str "output[%d]: machine %Ld, oracle %Ld" i va vb))
      b;
    !bad

let compare_state (m : Machine.t) (o : Iexec.t) =
  if m.Machine.halted <> o.Iexec.halted then
    Some
      ( "halted",
        Fmt.str "machine %shalted, oracle %shalted"
          (if m.Machine.halted then "" else "not ")
          (if o.Iexec.halted then "" else "not ") )
  else if m.Machine.pc <> o.Iexec.pc && not m.Machine.halted then
    Some ("pc", Fmt.str "machine pc %d, oracle pc %d" m.Machine.pc o.Iexec.pc)
  else
    match output_mismatch m o with
    | Some d -> Some ("output", d)
    | None -> (
        match find_reg_mismatch m o with
        | Some bad -> Some bad
        | None -> (
            match map_mismatch "imap" m.Machine.imap o.Iexec.imap with
            | Some bad -> Some bad
            | None -> (
                match map_mismatch "fmap" m.Machine.fmap o.Iexec.fmap with
                | Some bad -> Some bad
                | None ->
                    if
                      m.Machine.psw.Psw.map_enable
                      <> o.Iexec.psw.Psw.map_enable
                    then
                      Some
                        ( "psw",
                          Fmt.str "map_enable: machine %b, oracle %b"
                            m.Machine.psw.Psw.map_enable
                            o.Iexec.psw.Psw.map_enable )
                    else None)))

let mem_mismatch (m : Machine.t) (o : Iexec.t) =
  let n = min (Bytes.length m.Machine.mem) (Bytes.length o.Iexec.mem) in
  let bad = ref None in
  let i = ref 0 in
  while !bad = None && !i < n do
    if Bytes.get m.Machine.mem !i <> Bytes.get o.Iexec.mem !i then
      bad :=
        Some
          (Fmt.str "mem[0x%x]: machine %d, oracle %d" !i
             (Char.code (Bytes.get m.Machine.mem !i))
             (Char.code (Bytes.get o.Iexec.mem !i)));
    incr i
  done;
  !bad

(* --- the lockstep loop ---------------------------------------------------- *)

(** Run [image] to completion on both sides.  [oracle_model] overrides
    the oracle's auto-reset model (used by tests to inject a
    model-semantics divergence on purpose); it defaults to the
    machine's.  [fuel_cycles] bounds the machine run: no cycle past
    index [fuel_cycles] opens (the machine's own [cfg.fuel] is
    replaced). *)
let run ?oracle_model ?(fuel_cycles = 100_000_000) (cfg : Rc_machine.Config.t)
    (image : Image.t) =
  let m =
    Machine.create
      { cfg with Rc_machine.Config.fuel = max fuel_cycles (fuel_cycles + 1) }
      image
  in
  let o =
    Iexec.create ~arch:true
      ~model:(Option.value oracle_model ~default:cfg.Rc_machine.Config.model)
      ?trap_handler:cfg.Rc_machine.Config.trap_handler
      ~ifile:cfg.Rc_machine.Config.ifile ~ffile:cfg.Rc_machine.Config.ffile
      image
  in
  let diverged = ref None in
  (try
     while !diverged = None && not m.Machine.halted do
       let pc = m.Machine.pc in
       Machine.step m;
       Iexec.step o;
       match compare_state m o with
       | None -> ()
       | Some (field, detail) ->
           diverged :=
             Some
               (Report.locate image
                  (Report.v ~kind:"lockstep" ~field ~pc
                     ~cycle:(Machine.cycles m) detail))
     done
   with
  | Machine.Simulation_error _ when Machine.cycles m > fuel_cycles ->
      (* the machine's fuel check: only it lets the count pass the limit *)
      failwith "lockstep: machine out of fuel"
  | Machine.Simulation_error msg ->
      diverged :=
        Some
          (Report.locate image
             (Report.v ~kind:"exec-error" ~field:"machine" ~pc:m.Machine.pc
                ~cycle:(Machine.cycles m) ("machine raised: " ^ msg)))
  | Iexec.Exec_error msg ->
      diverged :=
        Some
          (Report.locate image
             (Report.v ~kind:"exec-error" ~field:"oracle" ~pc:o.Iexec.pc
                ~cycle:(Machine.cycles m) ("oracle raised: " ^ msg))));
  match !diverged with
  | Some r -> Diverged r
  | None -> (
      match mem_mismatch m o with
      | Some detail ->
          Diverged
            (Report.v ~kind:"lockstep" ~field:"memory"
               ~cycle:(Machine.cycles m) detail)
      | None -> Agree { cycles = Machine.cycles m; steps = o.Iexec.steps })
