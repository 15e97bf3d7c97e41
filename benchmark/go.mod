module c3/benchmark

go 1.24

require c3 v0.0.0

replace c3 => ../
