module iotsentinel/bench

go 1.22

require iotsentinel v0.0.0

replace iotsentinel => ../
