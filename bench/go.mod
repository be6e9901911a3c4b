module kascade/bench

go 1.24

require kascade v0.0.0

replace kascade => ../
