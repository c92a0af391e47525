module mggcn/benchmark

go 1.22

require mggcn v0.0.0

replace mggcn => ../
