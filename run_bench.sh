#!/bin/bash
# Runs the full bench suite; output lands in bench_output.txt next to this script.
cd "$(dirname "$0")"
sbt -batch "bench/test" > bench_output.txt 2>&1
echo "EXIT=$?" >> bench_output.txt
