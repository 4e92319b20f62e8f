(** SPECCPU 2006 C-benchmark profiles (the eleven programs of the paper's
    Figure 5), calibrated so the memory-stall fractions reproduce the
    published Fidelius-enc shape: mcf and omnetpp memory-bound and hard-hit
    (paper: 17.3% / 16.3%), bzip2/hmmer/h264ref compute-bound and unharmed,
    suite average around 5.4%. *)

val all : Profile.t list
