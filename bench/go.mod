// The benchmark is a module of its own so that it builds from its own
// directory with its own build file; the replace makes it part of the
// lsdgnn import tree, which is what lets it reach lsdgnn/internal/...
module lsdgnn/bench

go 1.22

require lsdgnn v0.0.0

replace lsdgnn => ../
