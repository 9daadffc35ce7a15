"""revpal: digit reversal, power-free sieving, palindrome counting, restricted
Euler products, exponential-sum certification, and reverse-Goldbach scans."""
