let mk name ~stall ~ws ~vmexits ~wf =
  { Profile.name;
    suite = "SPECCPU2006";
    total_mcycles = 50;
    mem_stall_fraction = stall;
    working_set_pages = ws;
    vmexits;
    write_fraction = wf }

let all =
  [ mk "perlbench" ~stall:0.055 ~ws:24 ~vmexits:473 ~wf:0.35;
    mk "bzip2" ~stall:0.004 ~ws:16 ~vmexits:196 ~wf:0.40;
    mk "gcc" ~stall:0.095 ~ws:40 ~vmexits:767 ~wf:0.38;
    (* mcf/omnetpp stall fractions are fitted so Fidelius-enc lands on the
       paper's measured 17.3% / 16.3% under the block-granular DRAM charge
       model (unaligned plain accesses pay for every block they touch). *)
    mk "mcf" ~stall:0.625 ~ws:64 ~vmexits:205 ~wf:0.25;
    mk "omnetpp" ~stall:0.565 ~ws:56 ~vmexits:440 ~wf:0.33;
    mk "gobmk" ~stall:0.029 ~ws:20 ~vmexits:337 ~wf:0.30;
    mk "sjeng" ~stall:0.014 ~ws:12 ~vmexits:262 ~wf:0.28;
    mk "libquantum" ~stall:0.125 ~ws:32 ~vmexits:500 ~wf:0.45;
    mk "h264ref" ~stall:0.003 ~ws:16 ~vmexits:237 ~wf:0.42;
    mk "astar" ~stall:0.100 ~ws:36 ~vmexits:544 ~wf:0.30;
    mk "hmmer" ~stall:0.002 ~ws:8 ~vmexits:162 ~wf:0.36 ]
