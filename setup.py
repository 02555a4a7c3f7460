from setuptools import Extension, setup

# optional: without a C compiler the package installs with the pure-Python kernel.
setup(ext_modules=[Extension("mcbound._gen_c", sources=["src/mcbound/_gen_c.c"],
                             extra_compile_args=["-O3"], optional=True)])
