package suite

// fixedFigure8: corrected variants of the Figure 8 bugs. Each must prove
// valid (Section 6.1: the fixes were re-translated and verified).
var fixedFigure8 = []Entry{
	{Name: "PR20186-fixed", File: "AddSub", Text: `
Name: PR20186-fixed
Pre: C != 1 && !isSignBit(C)
%a = sdiv %X, C
%r = sub 0, %a
=>
%r = sdiv %X, -C
`},
	{Name: "PR20189-fixed", File: "AddSub", Text: `
Name: PR20189-fixed
%B = sub nsw 0, %A
%C = sub nsw %x, %B
=>
%C = add nsw %x, %A
`},
	{Name: "PR21242-fixed", File: "MulDivRem", Text: `
Name: PR21242-fixed
Pre: isPowerOf2(C1)
%r = mul nsw %x, C1
=>
%r = shl %x, log2(C1)
`},
	{Name: "PR21243-fixed", File: "MulDivRem", Text: `
Name: PR21243-fixed
Pre: WillNotOverflowSignedMul(C1, C2) && C1 != 0 && C2 != 0
%Op0 = sdiv %X, C1
%r = sdiv %Op0, C2
=>
%r = sdiv %X, C1*C2
`},
	{Name: "PR21245-fixed", File: "MulDivRem", Text: `
Name: PR21245-fixed
Pre: C2 % (1<<C1) == 0 && C1 u< width(%X)-1
%s = shl nsw %X, C1
%r = sdiv %s, C2
=>
%r = sdiv %X, C2/(1<<C1)
`},
	{Name: "PR21255-fixed", File: "MulDivRem", Text: `
Name: PR21255-fixed
Pre: (C2 << C1) u>> C1 == C2 && C1 u< width(%X)
%Op0 = lshr %X, C1
%r = udiv %Op0, C2
=>
%r = udiv %X, C2 << C1
`},
	{Name: "PR21256-fixed", File: "MulDivRem", Text: `
Name: PR21256-fixed
Pre: %X != -1
%Op1 = sub 0, %X
%r = srem %Op0, %Op1
=>
%r = srem %Op0, %X
`},
	// The fix requires the shift to be overflow-free (nuw) so no set bit
	// of the power is lost, and the rebuilt shift amount to stay
	// non-negative.
	{Name: "PR21274-fixed", File: "MulDivRem", Text: `
Name: PR21274-fixed
Pre: isPowerOf2(%Power) && hasOneUse(%Y) && %B u<= %A
%s = shl nuw %Power, %A
%Y = lshr %s, %B
%r = udiv %X, %Y
=>
%sub = sub %A, %B
%Y = shl %Power, %sub
%r = udiv %X, %Y
`},
}

// patchSequence reconstructs the Section 6.2 episode: a performance
// patch whose first two revisions were shown wrong by Alive, with the
// third revision proved correct. The optimization strength-reduces an
// unsigned division by a power of two: revision 1 forgets the
// power-of-two precondition entirely (wrong values for other divisors),
// revision 2 adds it but wrongly marks the shift exact (introducing
// poison when low bits are discarded), and revision 3 is correct.
var patchSequence = []PatchRevision{
	{Revision: 1, WantValid: false, Text: `
Name: patch-v1
%r = udiv %x, C
=>
%r = lshr %x, log2(C)
`},
	{Revision: 2, WantValid: false, Text: `
Name: patch-v2
Pre: isPowerOf2(C)
%r = udiv %x, C
=>
%r = lshr exact %x, log2(C)
`},
	{Revision: 3, WantValid: true, Text: `
Name: patch-v3
Pre: isPowerOf2(C)
%r = udiv %x, C
=>
%r = lshr %x, log2(C)
`},
}
