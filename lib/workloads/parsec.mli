(** PARSEC benchmark profiles (the thirteen programs of the paper's
    Figure 6). canneal's unstructured data model makes it the only
    memory-encryption outlier (paper: 14.27%); the suite average lands near
    the paper's 1.97% (Fidelius-enc) and 0.43% (Fidelius). *)

val all : Profile.t list
