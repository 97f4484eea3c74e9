module bulkdel/benchmark

go 1.22

require bulkdel v0.0.0

replace bulkdel => ../
