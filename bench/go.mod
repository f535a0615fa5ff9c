module github.com/reo-cache/reo/bench

go 1.22

require github.com/reo-cache/reo v0.0.0

replace github.com/reo-cache/reo => ../
