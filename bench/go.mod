module makalu/bench

go 1.22

require makalu v0.0.0

replace makalu => ../
