module videocloud/bench

go 1.22

require videocloud v0.0.0

replace videocloud => ../
