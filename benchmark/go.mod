module github.com/uei-db/uei/benchmark

go 1.22

require github.com/uei-db/uei v0.0.0

replace github.com/uei-db/uei => ../
