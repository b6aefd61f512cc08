# A small program for the simulate goldens: MASK, MOVD and ST.
LDI r0, -3
MASK lt:8
LDI r0, 5
MASK mod:3:1
ADD r0, r0, r0
UNMASK
LDI r1, 0
ADD r1, r1, r0
MOVD r1, S
MOVD r1, E
MASK ge:6
ST r1, 12
UNMASK
LD r2, 12
ADD r3, r2, r0
HALT
