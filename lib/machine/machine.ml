(** The execution-driven simulator: functional execution of architectural
    form machine code, timed by the in-order core {!Timing}.

    Each {!step} fetches the next instruction, resolves its operands
    through the mapping tables, lets the core close the cycles its
    blockers demand, executes it, and issues it to the core with its real
    branch outcome.  This module owns only the functional side:
    registers, memory, the mapping tables, the output stream, the trace
    recorder, traps, [rfe] and interrupts.

    Register accesses go through the register mapping table whenever the
    PSW map-enable flag is set; [jsr]/[rts] reset the table to home
    (section 4.1); traps clear map-enable so handlers address core
    registers directly (section 4.3). *)

open Rc_isa
open Rc_core

exception Simulation_error = Timing.Simulation_error

let fail = Timing.fail

type t = {
  cfg : Config.t;
  image : Image.t;
  pre : Dins.t array;
      (** [image.code] predecoded once under [cfg.lat] (see {!Rc_isa.Dins}) *)
  iregs : int64 array;
  fregs : float array;
  imap : Map_table.t;
  fmap : Map_table.t;
  psw : Psw.t;
  mem : Bytes.t;
  mutable pc : int;
  mutable halted : bool;
  (* The output stream, a growable buffer in emission order (an [Emit]
     appends at [out_len]; no final reversal). *)
  mutable out : int64 array;
  mutable out_len : int;
  (* trap state *)
  mutable epc : int;
  mutable saved_psw : Psw.t option;
  mutable pending_interrupt : bool;
  mutable recorder : Dtrace.builder option;
      (** when set, every issued instruction appends its resolved
          operands and branch outcome; [None] costs one untaken branch
          per issued instruction *)
  timing : Timing.t;
}

let create (cfg : Config.t) (image : Image.t) =
  let mem = Bytes.make image.Image.mem_size '\000' in
  List.iter (fun (addr, init) -> Image.write_init mem addr init) image.Image.data_image;
  let t =
    {
      cfg;
      image;
      pre = Dins.decode ~lat:cfg.Config.lat image.Image.code;
      iregs = Array.make cfg.ifile.Reg.total 0L;
      fregs = Array.make cfg.ffile.Reg.total 0.0;
      imap = Map_table.create ~model:cfg.model cfg.ifile;
      fmap = Map_table.create ~model:cfg.model cfg.ffile;
      psw = Psw.create ();
      mem;
      pc = image.Image.entry;
      halted = false;
      out = [||];
      out_len = 0;
      epc = 0;
      saved_psw = None;
      pending_interrupt = false;
      recorder = None;
      timing = Timing.create cfg;
    }
  in
  t.iregs.(Reg.sp) <- Int64.of_int image.Image.stack_top;
  t

let context_view t =
  {
    Context.iregs = t.iregs;
    fregs = t.fregs;
    imap = t.imap;
    fmap = t.fmap;
    psw = t.psw;
  }

(** Cycles closed so far. *)
let cycles t = t.timing.Timing.st.Timing.cycles

(* --- register access through the mapping table ------------------------ *)

(* [map_on] is the PSW map-enable flag read once per instruction: when
   it is clear the architectural index IS the physical register and the
   [Map_table] indirection is skipped entirely (the hoisted fast path). *)

let[@inline] resolve_read t ~map_on (cls : Reg.cls) r =
  if not map_on then r
  else
    match cls with
    | Reg.Int -> Map_table.read t.imap r
    | Reg.Float -> Map_table.read t.fmap r

let[@inline] resolve_write t ~map_on (cls : Reg.cls) r =
  if not map_on then r
  else
    match cls with
    | Reg.Int -> Map_table.write t.imap r
    | Reg.Float -> Map_table.write t.fmap r

(* Only called when the map is enabled. *)
let[@inline] note_write t (cls : Reg.cls) r =
  match cls with
  | Reg.Int -> Map_table.note_write t.imap r
  | Reg.Float -> Map_table.note_write t.fmap r

let get_i t p = if p = Reg.zero then 0L else t.iregs.(p)
let get_f t p = t.fregs.(p)

(* --- output stream ----------------------------------------------------- *)

let[@inline never] grow_out t =
  let cap = max 64 (2 * Array.length t.out) in
  let out = Array.make cap 0L in
  Array.blit t.out 0 out 0 t.out_len;
  t.out <- out

let[@inline] emit t v =
  if t.out_len = Array.length t.out then grow_out t;
  t.out.(t.out_len) <- v;
  t.out_len <- t.out_len + 1

(** The emitted stream so far, in emission order. *)
let output_list t = Array.to_list (Array.sub t.out 0 t.out_len)

(* --- memory ------------------------------------------------------------ *)

(* Written so that no sum can wrap: [a + width] overflows for [a] near
   [max_int]. *)
let check_addr t a width =
  if a < 0 || a > Bytes.length t.mem - width then
    fail "bad address %d at pc %d" a t.pc

let[@inline] load_mem t width a =
  match width with
  | Opcode.W8 ->
      check_addr t a 8;
      Bytes.get_int64_le t.mem a
  | Opcode.W1 ->
      check_addr t a 1;
      Int64.of_int (Char.code (Bytes.get t.mem a))

let[@inline] store_mem t width a v =
  match width with
  | Opcode.W8 ->
      check_addr t a 8;
      Bytes.set_int64_le t.mem a v
  | Opcode.W1 ->
      check_addr t a 1;
      Bytes.set t.mem a (Char.chr (Int64.to_int (Int64.logand v 0xFFL)))

(* --- trap entry --------------------------------------------------------- *)

let handler_addr t =
  match t.cfg.Config.trap_handler with
  | Some name -> Image.function_address t.image name
  | None -> fail "trap with no handler configured"

(* Traps, rfe and interrupts change control flow in a way the pure
   timing replayer does not model; a recording that sees one is not
   replayable. *)
let invalidate_recording t =
  match t.recorder with Some b -> Dtrace.invalidate b | None -> ()

let enter_trap t ~return_to =
  invalidate_recording t;
  t.saved_psw <- Some (Psw.enter_trap t.psw);
  t.epc <- return_to;
  t.pc <- handler_addr t

(** Request an external interrupt; taken at the next cycle boundary. *)
let inject_interrupt t =
  invalidate_recording t;
  t.pending_interrupt <- true

(** Attach (or clear) the per-cycle observer. *)
let set_observer t obs = Timing.set_observer t.timing obs

(** Attach (or clear) the dynamic-trace recorder. *)
let set_recorder t r = t.recorder <- r

(* --- one instruction ------------------------------------------------------ *)

(* Destination writes of the execute arms.  [dp] is the resolved
   physical destination, [-1] when the instruction has none. *)

let[@inline] set_int t ~map_on (d : Dins.t) dp v =
  if dp < 0 then fail "missing destination at pc %d" t.pc;
  if dp <> Reg.zero then t.iregs.(dp) <- v;
  if map_on then note_write t d.Dins.dc d.Dins.d

let[@inline] set_float t ~map_on (d : Dins.t) dp v =
  if dp < 0 then fail "missing destination at pc %d" t.pc;
  t.fregs.(dp) <- v;
  if map_on then note_write t d.Dins.dc d.Dins.d

(* The functional effect of [d], returning the next pc; a conditional
   branch follows its outcome [taken].  [t.pc] is still the
   instruction's address. *)
let[@inline] execute t (d : Dins.t) ~map_on ~taken sp0 sp1 dp =
  let next = t.pc + 1 in
  match d.Dins.op with
  | Opcode.Alu a ->
      set_int t ~map_on d dp (Opcode.eval_alu a (get_i t sp0) (get_i t sp1));
      next
  | Opcode.Alui a ->
      set_int t ~map_on d dp (Opcode.eval_alu a (get_i t sp0) d.Dins.imm);
      next
  | Opcode.Li -> set_int t ~map_on d dp d.Dins.imm; next
  | Opcode.Move -> set_int t ~map_on d dp (get_i t sp0); next
  | Opcode.Fli -> set_float t ~map_on d dp d.Dins.fimm; next
  | Opcode.Fmove -> set_float t ~map_on d dp (get_f t sp0); next
  | Opcode.Fpu f ->
      let b = if d.Dins.nsrcs > 1 then get_f t sp1 else 0.0 in
      set_float t ~map_on d dp (Opcode.eval_fpu f (get_f t sp0) b);
      next
  | Opcode.Itof -> set_float t ~map_on d dp (Int64.to_float (get_i t sp0)); next
  | Opcode.Ftoi -> set_int t ~map_on d dp (Int64.of_float (get_f t sp0)); next
  | Opcode.Fcmp c ->
      set_int t ~map_on d dp
        (if Opcode.eval_fcond c (get_f t sp0) (get_f t sp1) then 1L else 0L);
      next
  | Opcode.Ld w ->
      let a = Int64.to_int (get_i t sp0) + Int64.to_int d.Dins.imm in
      set_int t ~map_on d dp (load_mem t w a);
      next
  | Opcode.St w ->
      let a = Int64.to_int (get_i t sp1) + Int64.to_int d.Dins.imm in
      store_mem t w a (get_i t sp0);
      next
  | Opcode.Fld ->
      let a = Int64.to_int (get_i t sp0) + Int64.to_int d.Dins.imm in
      set_float t ~map_on d dp (Int64.float_of_bits (load_mem t Opcode.W8 a));
      next
  | Opcode.Fst ->
      let a = Int64.to_int (get_i t sp1) + Int64.to_int d.Dins.imm in
      store_mem t Opcode.W8 a (Int64.bits_of_float (get_f t sp0));
      next
  | Opcode.Br _ -> if taken then d.Dins.target else next
  | Opcode.Jmp -> d.Dins.target
  | Opcode.Jsr ->
      (* Reset the map, then write RA to its home location (section
         4.1). *)
      Map_table.reset t.imap;
      Map_table.reset t.fmap;
      t.iregs.(Reg.ra) <- Int64.of_int next;
      d.Dins.target
  | Opcode.Rts ->
      Map_table.reset t.imap;
      Map_table.reset t.fmap;
      Int64.to_int (get_i t sp0)
  | Opcode.Connect ->
      if map_on then
        for i = 0 to Array.length d.Dins.connects - 1 do
          let c = d.Dins.connects.(i) in
          match c.Insn.ccls with
          | Reg.Int -> Map_table.apply t.imap c
          | Reg.Float -> Map_table.apply t.fmap c
        done;
      next
  | Opcode.Emit -> emit t (get_i t sp0); next
  | Opcode.Femit -> emit t (Int64.bits_of_float (get_f t sp0)); next
  | Opcode.Trap ->
      enter_trap t ~return_to:next;
      t.pc
  | Opcode.Rfe ->
      invalidate_recording t;
      (match t.saved_psw with
      | Some saved ->
          Psw.return_from_exception t.psw ~saved;
          t.saved_psw <- None
      | None -> fail "rfe without saved PSW");
      t.epc
  | Opcode.Mapen ->
      t.psw.Psw.map_enable <- not (Int64.equal d.Dins.imm 0L);
      next
  (* Privileged map access (section 4.3): reads and writes the integer
     mapping table directly, regardless of the PSW map-enable flag, so
     handlers can save and restore connection state. *)
  | Opcode.Mfmap kind ->
      let idx = Int64.to_int d.Dins.imm in
      let v =
        match kind with
        | Opcode.Read -> Map_table.read t.imap idx
        | Opcode.Write -> Map_table.write t.imap idx
      in
      if dp < 0 then fail "mfmap needs a destination at pc %d" t.pc;
      if dp <> Reg.zero then t.iregs.(dp) <- Int64.of_int v;
      next
  | Opcode.Mtmap kind ->
      let idx = Int64.to_int d.Dins.imm in
      let v = Int64.to_int (get_i t sp0) in
      (match kind with
      | Opcode.Read -> Map_table.connect_use t.imap ~ri:idx ~rp:v
      | Opcode.Write -> Map_table.connect_def t.imap ~ri:idx ~rp:v);
      next
  | Opcode.Halt ->
      t.halted <- true;
      next
  | Opcode.Nop -> next

(* Issue the next instruction and return true: take a pending interrupt
   at a cycle boundary, resolve the operands and the branch outcome, let
   the core close the cycles the blockers demand and issue it, then
   execute it.  False when a cycle closed under a pending interrupt
   instead (the caller tries again, taking it).  Issuing before executing
   keeps an instruction that faults counted as issued. *)
let[@inline] try_step t =
  let tm = t.timing in
  if t.pending_interrupt && Timing.fresh tm then begin
    t.pending_interrupt <- false;
    enter_trap t ~return_to:t.pc
  end;
  let pc = t.pc in
  if pc < 0 || pc >= Array.length t.pre then fail "pc %d out of code" pc;
  let d = t.pre.(pc) in
  let map_on = t.psw.Psw.map_enable in
  let sp0 =
    if d.Dins.nsrcs > 0 then resolve_read t ~map_on d.Dins.s0c d.Dins.s0
    else -1
  in
  let sp1 =
    if d.Dins.nsrcs > 1 then resolve_read t ~map_on d.Dins.s1c d.Dins.s1
    else -1
  in
  let dp =
    if d.Dins.d >= 0 then resolve_write t ~map_on d.Dins.dc d.Dins.d else -1
  in
  let taken =
    match d.Dins.op with
    | Opcode.Br c -> Opcode.eval_cond c (get_i t sp0) (get_i t sp1)
    | _ -> false
  in
  Timing.issue tm ~pc ~yield:t.pending_interrupt d sp0 sp1 dp map_on taken
  && begin
       t.pc <- execute t d ~map_on ~taken sp0 sp1 dp;
       (match t.recorder with
       | None -> ()
       | Some b ->
           (* No range checks: whoever attached the recorder established
              [Dtrace.fits] for this code length and these register
              files.  A trap or rfe above already invalidated it. *)
           Dtrace.add b ~pc ~sp0 ~sp1 ~dp ~map_on ~taken);
       true
     end

(** Issue exactly one instruction; a no-op once halted. *)
let step t = if not t.halted then while not (try_step t) do () done

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

let lost_slots = Timing.lost_slots
let slot_invariant_holds = Timing.slot_invariant_holds

let checksum_of_output output =
  List.fold_left
    (fun acc v -> Int64.add (Int64.mul acc 1000003L) v)
    0x9E3779B9L output

let finish t =
  let output = output_list t in
  Timing.result t.timing ~output ~checksum:(checksum_of_output output)

(* Fuel is the core's: it fails the run when a cycle would open past
   [cfg.fuel]. *)
let run_machine t =
  while not t.halted do
    ignore (try_step t)
  done;
  finish t

(** Assemble-free entry point: simulate an image under a configuration. *)
let run cfg image = run_machine (create cfg image)
