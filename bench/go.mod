module spidercache/bench

go 1.24

require spidercache v0.0.0

replace spidercache => ../
