module votm/bench

go 1.22

require votm v0.0.0

replace votm => ../
