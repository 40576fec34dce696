(* A fixed amount of CPU work, independent of the code under test, that
   tells how fast the host runs OCaml right now.  It is shaped like the
   compiler's own work: many small allocations, an int-keyed hash table
   and balanced map, a sort, and pointer chasing over a few megabytes.
   The benchmark divides its CPU times by the time of this work, so a
   host that slows everything down for a while (a busy neighbour on a
   shared machine) does not read as a slower program. *)

module IM = Map.Make (Int)

type node = { mutable next : node option; weight : int }

let work () =
  let rs = Random.State.make [| 0xca1b |] in
  let n = 60_000 in
  let h = Hashtbl.create 1024 in
  let m = ref IM.empty in
  for i = 0 to n - 1 do
    let k = Random.State.int rs 16384 in
    let l = Option.value ~default:[] (Hashtbl.find_opt h k) in
    Hashtbl.replace h k (if List.compare_length_with l 6 > 0 then [ i ] else i :: l);
    m :=
      IM.update (k land 4095)
        (function None -> Some [ i ] | Some l -> Some (List.filteri (fun j _ -> j < 4) (i :: l)))
        !m
  done;
  let a = Array.init n (fun _ -> Random.State.bits rs) in
  Array.sort compare a;
  let nodes = Array.init n (fun i -> { next = None; weight = a.(i) land 255 }) in
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rs (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  for i = 0 to n - 2 do
    nodes.(perm.(i)).next <- Some nodes.(perm.(i + 1))
  done;
  let rec chase acc = function
    | None -> acc
    | Some nd -> chase (acc + nd.weight) nd.next
  in
  let total = ref 0 in
  for _ = 1 to 8 do
    total := !total + chase 0 (Some nodes.(perm.(0)))
  done;
  !total + Hashtbl.length h + IM.cardinal !m

(** Answer each line of standard input, a round count [n], with one
    line of JSON: the CPU seconds of each of [n] runs of the fixed work.
    One unmeasured run first lets the heap grow. *)
let serve () =
  ignore (Sys.opaque_identity (work ()));
  let round _ =
    let t0 = Sys.time () in
    ignore (Sys.opaque_identity (work ()));
    Sys.time () -. t0
  in
  try
    while true do
      let n = int_of_string (String.trim (input_line stdin)) in
      let times = List.init n round |> List.map (Printf.sprintf "%.9f") in
      print_endline ("{\"rounds\":[" ^ String.concat "," times ^ "]}")
    done
  with End_of_file -> ()
