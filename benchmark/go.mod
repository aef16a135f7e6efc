module datacell/benchmark

go 1.24

require datacell v0.0.0

replace datacell => ../
