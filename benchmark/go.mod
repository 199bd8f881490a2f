module ifdk/benchmark

go 1.24

require ifdk v0.0.0

replace ifdk => ../
