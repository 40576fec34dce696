(** The machine-code oracle: a sequential, timing-free executor of
    assembled images.

    This is the second half of the differential-testing story.  The IR
    interpreter ({!Interp}) fixes the semantics the compiler must
    preserve; [Iexec] fixes the semantics the {e simulator} must
    preserve: it executes one instruction at a time with none of the
    simulator's machinery — no issue groups, no interlocks, no
    latencies, no slot accounting — so its architectural state after
    [n] dynamic instructions is the ground truth the cycle-accurate
    machine is checked against in lockstep
    ({!Rc_check.Lockstep}).

    The executor is deliberately written from scratch against the paper
    (sections 2.1–2.4, 4.1–4.3) rather than sharing the simulator's
    issue-loop code: a bug must be disagreed about, not inherited.

    Two resolution modes:
    - {e architectural form} ([arch = true], the default): operand
      indices go through the register mapping tables whenever the PSW
      map-enable flag is set, exactly as in hardware;
    - {e physical form} ([arch = false]): operand numbers {e are}
      physical registers and the tables are never consulted — this mode
      executes the code generator's output {e before} connect insertion,
      which is what the pass-level oracle checks. *)

open Rc_isa
open Rc_core

exception Exec_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Exec_error s)) fmt

type t = {
  code : Insn.t array;
  arch : bool;
  model : Model.t;
  iregs : int64 array;
  fregs : float array;
  imap : Map_table.t;
  fmap : Map_table.t;
  psw : Psw.t;
  mem : Bytes.t;
  trap_handler : int option;
  mutable pc : int;
  mutable halted : bool;
  mutable steps : int;  (** dynamic instructions executed *)
  mutable out_rev : int64 list;
  mutable out_pcs_rev : int list;
      (** pc of the instruction that produced each output element,
          parallel to [out_rev] *)
  mutable epc : int;
  mutable saved_psw : Psw.t option;
}

let create ?(arch = true) ?(model = Model.default) ?trap_handler
    ~(ifile : Reg.file) ~(ffile : Reg.file) (image : Image.t) =
  let mem = Bytes.make image.Image.mem_size '\000' in
  List.iter
    (fun (addr, init) -> Image.write_init mem addr init)
    image.Image.data_image;
  let t =
    {
      code = image.Image.code;
      arch;
      model;
      iregs = Array.make ifile.Reg.total 0L;
      fregs = Array.make ffile.Reg.total 0.0;
      imap = Map_table.create ~model ifile;
      fmap = Map_table.create ~model ffile;
      psw = Psw.create ();
      mem;
      trap_handler =
        Option.map (fun name -> Image.function_address image name) trap_handler;
      pc = image.Image.entry;
      halted = false;
      steps = 0;
      out_rev = [];
      out_pcs_rev = [];
      epc = 0;
      saved_psw = None;
    }
  in
  t.iregs.(Reg.sp) <- Int64.of_int image.Image.stack_top;
  t

let output t = List.rev t.out_rev
let output_pcs t = List.rev t.out_pcs_rev

(* --- register access ----------------------------------------------------- *)

let[@inline] mapped t = t.arch && t.psw.Psw.map_enable

let read_phys t (o : Insn.operand) =
  if not (mapped t) then o.Insn.r
  else
    match o.Insn.cls with
    | Reg.Int -> Map_table.read t.imap o.Insn.r
    | Reg.Float -> Map_table.read t.fmap o.Insn.r

let write_phys t (o : Insn.operand) =
  if not (mapped t) then o.Insn.r
  else
    match o.Insn.cls with
    | Reg.Int -> Map_table.write t.imap o.Insn.r
    | Reg.Float -> Map_table.write t.fmap o.Insn.r

let get_i t p = if p = Reg.zero then 0L else t.iregs.(p)
let set_phys_i t p v = if p <> Reg.zero then t.iregs.(p) <- v

(* Reads of an instruction's integer/float sources. *)
let src t i k = read_phys t i.Insn.srcs.(k)
let isrc t i k = get_i t (src t i k)
let fsrc t i k = t.fregs.(src t i k)

let dst_operand t (i : Insn.t) =
  match i.Insn.dst with
  | Some o -> o
  | None -> fail "missing destination at pc %d" t.pc

(* A mapped write: resolve through the write map, store, then perform
   the model's automatic connection (paper Figure 3) on the
   destination's table entry. *)
let write_i t (i : Insn.t) v =
  let o = dst_operand t i in
  set_phys_i t (write_phys t o) v;
  if mapped t then Map_table.note_write t.imap o.Insn.r

let write_f t (i : Insn.t) v =
  let o = dst_operand t i in
  t.fregs.(write_phys t o) <- v;
  if mapped t then Map_table.note_write t.fmap o.Insn.r

(* --- memory -------------------------------------------------------------- *)

(* Written so that no sum can wrap: [a + width] overflows for [a] near
   [max_int]. *)
let check_addr t a width =
  if a < 0 || a > Bytes.length t.mem - width then
    fail "bad address %d at pc %d" a t.pc

let load_mem t width a =
  match width with
  | Opcode.W8 ->
      check_addr t a 8;
      Bytes.get_int64_le t.mem a
  | Opcode.W1 ->
      check_addr t a 1;
      Int64.of_int (Char.code (Bytes.get t.mem a))

let store_mem t width a v =
  match width with
  | Opcode.W8 ->
      check_addr t a 8;
      Bytes.set_int64_le t.mem a v
  | Opcode.W1 ->
      check_addr t a 1;
      Bytes.set t.mem a (Char.chr (Int64.to_int (Int64.logand v 0xFFL)))

(* --- one instruction ------------------------------------------------------ *)

let enter_trap t ~return_to =
  match t.trap_handler with
  | None -> fail "trap with no handler configured at pc %d" t.pc
  | Some h ->
      t.saved_psw <- Some (Psw.enter_trap t.psw);
      t.epc <- return_to;
      t.pc <- h

(** Execute the instruction at [pc].  No-op once halted. *)
let step t =
  if not t.halted then begin
    if t.pc < 0 || t.pc >= Array.length t.code then
      fail "pc %d out of code" t.pc;
    let i = t.code.(t.pc) in
    t.steps <- t.steps + 1;
    let next = ref (t.pc + 1) in
    (match i.Insn.op with
    | Opcode.Alu a -> write_i t i (Opcode.eval_alu a (isrc t i 0) (isrc t i 1))
    | Opcode.Alui a -> write_i t i (Opcode.eval_alu a (isrc t i 0) i.Insn.imm)
    | Opcode.Li -> write_i t i i.Insn.imm
    | Opcode.Move -> write_i t i (isrc t i 0)
    | Opcode.Fli -> write_f t i i.Insn.fimm
    | Opcode.Fmove -> write_f t i (fsrc t i 0)
    | Opcode.Fpu f ->
        let b = if Array.length i.Insn.srcs > 1 then fsrc t i 1 else 0.0 in
        write_f t i (Opcode.eval_fpu f (fsrc t i 0) b)
    | Opcode.Itof -> write_f t i (Int64.to_float (isrc t i 0))
    | Opcode.Ftoi -> write_i t i (Int64.of_float (fsrc t i 0))
    | Opcode.Fcmp c ->
        write_i t i
          (if Opcode.eval_fcond c (fsrc t i 0) (fsrc t i 1) then 1L else 0L)
    | Opcode.Ld w ->
        let a = Int64.to_int (isrc t i 0) + Int64.to_int i.Insn.imm in
        write_i t i (load_mem t w a)
    | Opcode.St w ->
        let a = Int64.to_int (isrc t i 1) + Int64.to_int i.Insn.imm in
        store_mem t w a (isrc t i 0)
    | Opcode.Fld ->
        let a = Int64.to_int (isrc t i 0) + Int64.to_int i.Insn.imm in
        write_f t i (Int64.float_of_bits (load_mem t Opcode.W8 a))
    | Opcode.Fst ->
        let a = Int64.to_int (isrc t i 1) + Int64.to_int i.Insn.imm in
        store_mem t Opcode.W8 a (Int64.bits_of_float (fsrc t i 0))
    | Opcode.Br c ->
        if Opcode.eval_cond c (isrc t i 0) (isrc t i 1) then
          next := i.Insn.target
    | Opcode.Jmp -> next := i.Insn.target
    | Opcode.Jsr ->
        (* Hardware resets the whole table, then RA receives the return
           address at its home location (paper section 4.1). *)
        Map_table.reset t.imap;
        Map_table.reset t.fmap;
        set_phys_i t Reg.ra (Int64.of_int (t.pc + 1));
        next := i.Insn.target
    | Opcode.Rts ->
        (* The return address is read through the (pre-reset) map, as
           any source operand is; then the table resets. *)
        let ra = Int64.to_int (isrc t i 0) in
        Map_table.reset t.imap;
        Map_table.reset t.fmap;
        next := ra
    | Opcode.Connect ->
        if mapped t then
          Array.iter
            (fun (c : Insn.connect) ->
              match c.Insn.ccls with
              | Reg.Int -> Map_table.apply t.imap c
              | Reg.Float -> Map_table.apply t.fmap c)
            i.Insn.connects
    | Opcode.Emit ->
        t.out_rev <- isrc t i 0 :: t.out_rev;
        t.out_pcs_rev <- t.pc :: t.out_pcs_rev
    | Opcode.Femit ->
        t.out_rev <- Int64.bits_of_float (fsrc t i 0) :: t.out_rev;
        t.out_pcs_rev <- t.pc :: t.out_pcs_rev
    | Opcode.Trap ->
        enter_trap t ~return_to:(t.pc + 1);
        next := t.pc
    | Opcode.Rfe ->
        (match t.saved_psw with
        | Some saved ->
            Psw.return_from_exception t.psw ~saved;
            t.saved_psw <- None
        | None -> fail "rfe without saved PSW at pc %d" t.pc);
        next := t.epc
    | Opcode.Mapen -> t.psw.Psw.map_enable <- not (Int64.equal i.Insn.imm 0L)
    | Opcode.Mfmap kind ->
        let idx = Int64.to_int i.Insn.imm in
        let v =
          match kind with
          | Opcode.Read -> Map_table.read t.imap idx
          | Opcode.Write -> Map_table.write t.imap idx
        in
        (* Privileged table read: the destination write does not perform
           the model's automatic connection (it is meant for handlers
           running with the map disabled). *)
        set_phys_i t (write_phys t (dst_operand t i)) (Int64.of_int v)
    | Opcode.Mtmap kind -> (
        let idx = Int64.to_int i.Insn.imm in
        let v = Int64.to_int (isrc t i 0) in
        match kind with
        | Opcode.Read -> Map_table.connect_use t.imap ~ri:idx ~rp:v
        | Opcode.Write -> Map_table.connect_def t.imap ~ri:idx ~rp:v)
    | Opcode.Halt -> t.halted <- true
    | Opcode.Nop -> ());
    match i.Insn.op with
    | Opcode.Trap -> () (* pc already redirected by enter_trap *)
    | _ -> t.pc <- !next
  end

(** Run to [Halt].  [fuel] bounds executed instructions. *)
let run ?(fuel = 200_000_000) t =
  let budget = ref fuel in
  while (not t.halted) && !budget > 0 do
    step t;
    decr budget
  done;
  if not t.halted then fail "out of fuel after %d instructions" t.steps
