module semstm/bench

go 1.22

require semstm v0.0.0

replace semstm => ../
