module autoview/bench

go 1.22

require autoview v0.0.0

replace autoview => ../
