from setuptools import Extension, setup

# _kernels_c.c is hand-written and performs the operations of
# _kernels_py.py in the same order; -ffp-contract=off keeps the compiler
# from fusing them, so both backends give the same bits.  Without a C
# compiler the build warns and continues, and rodvec runs on its
# pure-Python kernels.
setup(
    ext_modules=[
        Extension(
            "rodvec._kernels_c",
            ["src/rodvec/_kernels_c.c"],
            extra_compile_args=["-O3", "-ffp-contract=off"],
            optional=True,
        )
    ]
)
