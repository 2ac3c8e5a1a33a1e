module awra/perf

go 1.22

require awra v0.0.0

replace awra => ../
