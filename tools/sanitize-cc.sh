#!/bin/sh
# A $CC for checking the compiled kernels: the system C compiler with
# AddressSanitizer and UBSan, every report fatal.  The package's CFLAGS
# follow.  Delete cached _*core-*.so files before a run (their hash covers
# the code and CFLAGS, not $CC) and preload libasan into python; CI's
# "C kernels under ASan + UBSan" step shows the whole recipe.
exec cc -fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer "$@"
