#!/usr/bin/env sh
# Baseline code holds no AVX2 instructions: disassemble a linked x86-64
# binary and fail if any function containing a VEX- or EVEX-encoded
# instruction names neither an Avx2 lane type nor a 256-bit vector
# type. Only the AVX2 kernel table's code may use VEX encodings, and
# the library reaches it only after CPUID reports AVX2; an inline
# helper that the -mavx2 TU and a baseline TU both emit could
# otherwise leave the linker's pick of the VEX copy in baseline
# code. Registered as the `isa_isolation` ctest on x86-64 builds that
# compile the AVX2 TU.
#
# Usage: check_isa_isolation.sh path/to/binary [path/to/objdump]
set -u

BIN="${1:?usage: check_isa_isolation.sh path/to/binary [objdump]}"
OBJDUMP="${2:-objdump}"

listing=$("$OBJDUMP" -d -C -w --no-addresses "$BIN") || {
    echo "FAIL: $OBJDUMP could not disassemble $BIN"
    exit 1
}

# Function headers are "<name>:" lines; instruction lines are
# "<tab>bytes<tab>mnemonic operands". In 64-bit mode a first
# byte of c4 or c5 (VEX) or 62 (EVEX) is never a legacy opcode.
echo "$listing" | awk '
    /^<.*>:$/ {
        name = substr($0, 2, length($0) - 3)
        next
    }
    /\t/ {
        split($0, field, "\t")
        first = substr(field[2], 1, 2)
        if (first != "c4" && first != "c5" && first != "62")
            next
        if (name in seen)
            next
        seen[name] = 1
        allowed = name ~ /Avx2/ \
            || name ~ /(long long|double) __vector\(4\)/ \
            || name ~ /(char __vector\(32\)|short __vector\(16\))/ \
            || name ~ /(int|float) __vector\(8\)/
        if (allowed)
            ++ok
        else {
            printf "FAIL: baseline function holds VEX code: %s\n", name
            printf "      first: %s\n", field[3]
            ++bad
        }
    }
    END {
        if (ok + bad == 0) {
            print "FAIL: no VEX code at all; not an AVX2 build?"
            exit 1
        }
        if (bad > 0)
            exit 1
        printf "isa isolation ok: %d functions with VEX code, all AVX2\n", ok
    }
'
