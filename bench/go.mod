module netcoord/bench

go 1.24

require netcoord v0.0.0

replace netcoord => ../
