module github.com/cidr09/unbundled/benchmark

go 1.23

require github.com/cidr09/unbundled v0.0.0

replace github.com/cidr09/unbundled => ../
