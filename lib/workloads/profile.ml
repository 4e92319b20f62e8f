type t = {
  name : string;
  suite : string;
  total_mcycles : int;
  mem_stall_fraction : float;
  working_set_pages : int;
  vmexits : int;
  write_fraction : float;
}

