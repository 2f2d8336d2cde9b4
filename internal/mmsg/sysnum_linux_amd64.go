package mmsg

// sysSendmmsg is sendmmsg(2)'s number: package syscall was frozen
// before linux/amd64 gained the constant.
const sysSendmmsg = 307
