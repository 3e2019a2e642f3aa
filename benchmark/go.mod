module dnnjps/benchmark

go 1.22

require dnnjps v0.0.0

replace dnnjps => ../
