module contractstm/benchmark

go 1.22

require contractstm v0.0.0

replace contractstm => ../
