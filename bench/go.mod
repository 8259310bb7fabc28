module monitorless/bench

go 1.22

require monitorless v0.0.0

replace monitorless => ../
