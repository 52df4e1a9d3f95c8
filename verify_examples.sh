#!/bin/bash
# Post-bench example verification at small scale (fast smoke runs).
set -e
T=./target/release/examples
$T/binary_function_study 256 2>&1 | tail -5
$T/quickstart 2>&1 | tail -3
echo EXAMPLES_VERIFIED
