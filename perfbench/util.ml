(* Host clock, order statistics and host facts shared by every workload. *)

(* Monotonic host time in nanoseconds. Host time is the only noisy
   quantity the benchmark reports; every simulated statistic is a pure
   function of the seed. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let ns_to_s ns = float_of_int ns /. 1e9

(* A growable array of float samples, so the timed loop records one
   latency per op without allocating a list cell per sample. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 4096 0.0; len = 0 }

let add s x =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let sorted s =
  let a = Array.sub s.data 0 s.len in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of a sorted array; 0 when it is empty. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median xs = percentile (let a = Array.of_list xs in Array.sort Float.compare a; a) 0.5

(* The process's peak resident set, from the kernel's high-water mark. *)
let peak_rss_mib () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let cpu_model () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> "unknown"
  | ic ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 10 && String.sub line 0 10 = "model name" -> (
            match String.index_opt line ':' with
            | Some i -> String.trim (String.sub line (i + 1) (String.length line - i - 1))
            | None -> "unknown")
        | _ -> scan ()
        | exception End_of_file -> "unknown"
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* Where the benchmark writes its artifacts: inside the checkout it runs
   from, ignored by git. *)
let out_dir = ".perfbench"

let ensure_out_dir () = if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

let out_path name = Filename.concat out_dir name

let ok label = function Ok v -> v | Error e -> failwith (label ^ ": " ^ e)

(* --- host speed ------------------------------------------------------------ *)

(* The probe's time on the reference host, a 2-core Xeon at 2.1 GHz with
   no neighbours busy. It only fixes the unit: scaled figures read as on a
   host where the probe takes this long. *)
let nominal_probe_ns = 1_200_000.0

let probe_keys = 4096
let probe_buf = Bytes.make 65536 'p'
let probe_dst = Bytes.create 65536

let probe_once () =
  let t0 = now_ns () in
  let h = Hashtbl.create 1024 in
  for i = 0 to probe_keys - 1 do
    Hashtbl.replace h ((i * 7919) land 1023) (Bytes.make 16 (Char.chr (i land 255)))
  done;
  for _ = 1 to 8 do
    Bytes.blit probe_buf 0 probe_dst 0 65536;
    ignore (Digest.bytes probe_dst)
  done;
  ignore (List.sort compare (List.init 2000 (fun i -> (i * 7919) land 4095)));
  now_ns () - t0

(* Host speed right now, in ns of a fixed probe that uses none of the
   repository's code: hashing, small allocations, copies and a sort, the
   same kinds of work as the simulator's. Neighbours on a shared host slow
   it as they slow the program, so host-time figures are scaled by
   probe / [nominal_probe_ns]. On a shared 2-core Xeon, runs that
   reported both figures saw scaling narrow the between-run spread of
   every host-time metric except fleet's set-up time, most of them by a
   factor of two or more. Because the probe runs no repository code, a
   change to the program cannot move the scale. It runs on an emptied
   minor heap and reports the fastest of three runs, so the program's own
   heap does not move it. *)
let probe () =
  Gc.minor ();
  min (probe_once ()) (min (probe_once ()) (probe_once ()))
