// scorisbench is a module of its own so that the benchmark builds from
// its own directory and the root module's `go build ./... && go test
// ./...` never compiles or runs it. The module path sits under the root
// module's path, which is what lets it import repro/internal/...
module repro/cmd/scorisbench

go 1.23

require repro v0.0.0

replace repro => ../..
