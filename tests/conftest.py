"""Fixtures shared by the test modules."""

import ctypes
import subprocess
import sysconfig

import pytest

from combwalks import _native


@pytest.fixture(params=["not compiled", "not supported"])
def scalar_library(request, tmp_path):
    """The compiled loops as a target other than x86-64 GCC or Clang
    builds them, and as they run on a CPU without AVX-512: every call of
    ``philox_fill``, ``comb_step`` and ``observe`` takes the scalar
    loop."""
    src, flags = _native._SOURCE, ["-D__builtin_cpu_supports(f)=0"]
    if request.param == "not compiled":
        guard = "#if defined(__x86_64__) && defined(__GNUC__)"
        assert src.count(guard) == 4            # the bodies and their calls
        src, flags = src.replace(guard, "#if 0"), []
    cc = (sysconfig.get_config_var("CC") or "cc").split()
    so = tmp_path / "scalar.so"
    subprocess.run([*cc, *_native._CFLAGS, *flags, "-o", str(so), "-x", "c",
                    "-"], input=src.encode(), check=True)
    lib = ctypes.CDLL(str(so))
    for name in ("philox_fill", "comb_step", "observe"):
        fn, ref = getattr(lib, name), getattr(_native.library(), name)
        fn.argtypes, fn.restype = ref.argtypes, ref.restype
    return lib
