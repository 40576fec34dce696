(** Reference interpreter for the IR.

    Serves three roles: the {e profiler} (block/branch counts for the
    compiler), the {e oracle} for differential testing (compiled code
    must emit the same output stream), and the {e baseline semantics}
    that optimisation passes must preserve.

    Memory is laid out exactly as the assembler lays it out
    ({!Rc_isa.Image.layout_globals}), so addresses computed by [Addr]
    arithmetic agree between interpreted and simulated runs. *)

open Rc_isa
open Rc_ir

exception Out_of_fuel
exception Bad_address of int

type value = I of int64 | F of float

type outcome = {
  output : int64 list;
      (** emitted values in order; floats as IEEE bit patterns *)
  checksum : int64;
  profile : Profile.t;
  dyn_ops : int;  (** IR operations executed (terminators included) *)
  return_value : value option;
  mem : Bytes.t;  (** final memory; globals live in [data_base, data_end) *)
  data_end : int;
}

let checksum_of_output output =
  List.fold_left
    (fun acc v -> Int64.add (Int64.mul acc 1000003L) v)
    0x9E3779B9L output

type state = {
  prog : Prog.t;
  mem : Bytes.t;
  global_addr : (string * int) list;
  profile : Profile.t;
  mutable out_rev : int64 list;
  mutable fuel : int;
  mutable ops : int;
}

let as_int = function I n -> n | F _ -> invalid_arg "Interp: expected int"
let as_float = function F x -> x | I _ -> invalid_arg "Interp: expected float"

(* Written so that no sum can wrap: [a + width] overflows for [a] near
   [max_int]. *)
let check_addr st a width =
  if a < 0 || a > Bytes.length st.mem - width then raise (Bad_address a)

let load st width a =
  match width with
  | Opcode.W8 ->
      check_addr st a 8;
      Bytes.get_int64_le st.mem a
  | Opcode.W1 ->
      check_addr st a 1;
      Int64.of_int (Char.code (Bytes.get st.mem a))

let store st width a v =
  match width with
  | Opcode.W8 ->
      check_addr st a 8;
      Bytes.set_int64_le st.mem a v
  | Opcode.W1 ->
      check_addr st a 1;
      Bytes.set st.mem a (Char.chr (Int64.to_int (Int64.logand v 0xFFL)))

(** Truncation toward zero, the simulator uses the same conversion. *)
let float_to_int x = Int64.of_float x

let rec run_func st (f : Func.t) (args : value list) =
  let env : value Vreg.Tbl.t = Vreg.Tbl.create 64 in
  (try
     List.iter2 (fun p a -> Vreg.Tbl.replace env p a) f.Func.params args
   with Invalid_argument _ ->
     invalid_arg (Fmt.str "Interp: arity mismatch calling %s" f.Func.name));
  let get v =
    try Vreg.Tbl.find env v
    with Not_found ->
      invalid_arg (Fmt.str "Interp: %a used before definition in %s" Vreg.pp v
          f.Func.name)
  in
  let geti v = as_int (get v) in
  let getf v = as_float (get v) in
  let set v x = Vreg.Tbl.replace env v x in
  let value_of = function Op.V v -> geti v | Op.C c -> c in
  let tick () =
    st.ops <- st.ops + 1;
    st.fuel <- st.fuel - 1;
    if st.fuel <= 0 then raise Out_of_fuel
  in
  let exec_op op =
    tick ();
    match op with
    | Op.Li (d, n) -> set d (I n)
    | Op.Fli (d, x) -> set d (F x)
    | Op.Mov (d, s) -> set d (get s)
    | Op.Alu (a, d, x, y) -> set d (I (Opcode.eval_alu a (value_of x) (value_of y)))
    | Op.Fpu (o, d, s1, s2) ->
        let y = match s2 with Some s -> getf s | None -> 0.0 in
        set d (F (Opcode.eval_fpu o (getf s1) y))
    | Op.Itof (d, s) -> set d (F (Int64.to_float (geti s)))
    | Op.Ftoi (d, s) -> set d (I (float_to_int (getf s)))
    | Op.Fcmp (c, d, s1, s2) ->
        set d (I (if Opcode.eval_fcond c (getf s1) (getf s2) then 1L else 0L))
    | Op.Ld (w, d, base, off) ->
        set d (I (load st w (Int64.to_int (geti base) + off)))
    | Op.St (w, v, base, off) ->
        store st w (Int64.to_int (geti base) + off) (geti v)
    | Op.Fld (d, base, off) ->
        set d
          (F (Int64.float_of_bits (load st Opcode.W8 (Int64.to_int (geti base) + off))))
    | Op.Fst (v, base, off) ->
        store st Opcode.W8
          (Int64.to_int (geti base) + off)
          (Int64.bits_of_float (getf v))
    | Op.Addr (d, g) -> (
        match List.assoc_opt g st.global_addr with
        | Some a -> set d (I (Int64.of_int a))
        | None -> invalid_arg ("Interp: unknown global " ^ g))
    | Op.Call { dst; callee; args } -> (
        Profile.note_call st.profile ~callee;
        let f' = Prog.find_func st.prog callee in
        let ret = run_func st f' (List.map get args) in
        match (dst, ret) with
        | None, _ -> ()
        | Some d, Some r -> set d r
        | Some _, None ->
            invalid_arg (Fmt.str "Interp: %s returned no value" callee))
    | Op.Emit v -> st.out_rev <- geti v :: st.out_rev
    | Op.Femit v -> st.out_rev <- Int64.bits_of_float (getf v) :: st.out_rev
  in
  let rec run_block (b : Block.t) =
    Profile.note_block st.profile ~func:f.Func.name ~block:b.Block.id;
    List.iter exec_op b.Block.ops;
    tick ();
    match b.Block.term with
    | Op.Ret None -> None
    | Op.Ret (Some v) -> Some (get v)
    | Op.Halt -> raise Exit
    | Op.Jmp l -> run_block (Func.find_block f l)
    | Op.Br (c, x, y, t, e) ->
        let taken = Opcode.eval_cond c (geti x) (geti y) in
        Profile.note_branch st.profile ~func:f.Func.name ~block:b.Block.id ~taken;
        run_block (Func.find_block f (if taken then t else e))
  in
  run_block (Func.entry f)

(** Run a whole program from its entry function.  [fuel] bounds the
    number of executed IR operations. *)
let run ?(fuel = 200_000_000) (prog : Prog.t) =
  let global_addr, data_end = Image.layout_globals prog.Prog.globals in
  let mem = Bytes.make (data_end + 4096) '\000' in
  List.iter
    (fun (g : Mcode.global) ->
      Image.write_init mem (List.assoc g.Mcode.gname global_addr) g.Mcode.init)
    prog.Prog.globals;
  let st =
    {
      prog;
      mem;
      global_addr;
      profile = Profile.create ();
      out_rev = [];
      fuel;
      ops = 0;
    }
  in
  let return_value =
    try run_func st (Prog.entry_func prog) [] with Exit -> None
  in
  let output = List.rev st.out_rev in
  {
    output;
    checksum = checksum_of_output output;
    profile = st.profile;
    dyn_ops = st.ops;
    return_value;
    mem = st.mem;
    data_end;
  }
