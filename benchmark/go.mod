module kstm/benchmark

go 1.24

require kstm v0.0.0

replace kstm => ../
