module github.com/slash-stream/slash/bench

go 1.22

require github.com/slash-stream/slash v0.0.0

replace github.com/slash-stream/slash => ../
