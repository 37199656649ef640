from setuptools import Extension, setup

# The C file is generated from _kernels_cy.pyx by Cython and tracked, so
# building needs only a C compiler.  Without one the build warns and
# continues, and rodvec runs on its pure-Python kernels.
setup(
    ext_modules=[
        Extension(
            "rodvec._kernels_cy",
            ["src/rodvec/_kernels_cy.c"],
            extra_compile_args=["-O3"],
            optional=True,
        )
    ]
)
