module chimera/bench

go 1.24

require chimera v0.0.0

replace chimera => ../
