module github.com/rockclean/rock/bench

go 1.22

require github.com/rockclean/rock v0.0.0

replace github.com/rockclean/rock => ../
