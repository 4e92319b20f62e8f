type pfn = int
type gfn = int
type vfn = int

let page_shift = 12
let page_size = 1 lsl page_shift
let block_size = 16
let blocks_per_page = page_size / block_size

let addr_of frame off = (frame lsl page_shift) lor off
let frame_of addr = addr lsr page_shift
let offset_of addr = addr land (page_size - 1)
